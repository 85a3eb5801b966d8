package hfl

import (
	"fmt"

	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/parallel"
	"github.com/mach-fl/mach/internal/telemetry"
	"github.com/mach-fl/mach/internal/tensor"
)

// Result summarizes one training run.
type Result struct {
	// History holds the global-model evaluations.
	History *metrics.History
	// StepsRun is how many time steps executed (smaller than Config.Steps
	// when an accuracy target stopped the run early).
	StepsRun int
	// TotalSampled counts device participations over the whole run.
	TotalSampled int
	// SampledPerStep records how many devices trained at each step.
	SampledPerStep []int
	// ReachedTarget reports whether the early-stop accuracy target was hit,
	// and TargetStep the step at which it happened.
	ReachedTarget bool
	TargetStep    int
	// Comm tallies the communication volume of the run.
	Comm CommStats
}

// CommStats counts the model transfers of a run. The simulator fills it
// analytically, valued at 8 bytes per parameter (float64): device downlink
// counts one edge-model download per sampled device per step (Eq. 4's w^t_n
// distribution); device uplink one local-model upload per successful
// participation (Eq. 5); cloud volume one edge-model exchange per edge per
// cloud round, both directions (Eq. 6). The distributed stack
// (internal/fed) instead measures real wire bytes under net/rpc and sets
// Measured.
type CommStats struct {
	DeviceUplinkBytes   int64
	DeviceDownlinkBytes int64
	CloudBytes          int64
	// DeviceUploads/DeviceDownloads/CloudTransfers count the model-bearing
	// messages behind the byte totals.
	DeviceUploads   int64
	DeviceDownloads int64
	CloudTransfers  int64
	// Measured reports that the byte counts were read off real connections
	// rather than computed analytically.
	Measured bool
}

// Total returns the run's total transferred bytes.
func (c CommStats) Total() int64 {
	return c.DeviceUplinkBytes + c.DeviceDownlinkBytes + c.CloudBytes
}

// RunOption customizes a call to Run.
type RunOption func(*runOptions)

type runOptions struct {
	target float64
	hasTgt bool
	stepFn func(step, sampled int)
	evalFn func(step int, accuracy, loss float64)
}

// WithTarget stops the run at the first evaluation whose accuracy reaches
// target, the evaluation's time-to-accuracy protocol.
func WithTarget(target float64) RunOption {
	return func(o *runOptions) { o.target, o.hasTgt = target, true }
}

// WithStepHook invokes fn after every time step with the number of devices
// that trained.
func WithStepHook(fn func(step, sampled int)) RunOption {
	return func(o *runOptions) { o.stepFn = fn }
}

// WithEvalHook invokes fn after every global-model evaluation.
func WithEvalHook(fn func(step int, accuracy, loss float64)) RunOption {
	return func(o *runOptions) { o.evalFn = fn }
}

// localResult is one sampled device's contribution to edge aggregation.
type localResult struct {
	params []float64
	weight float64 // 1/(|M_n|·q) for unbiased strategies, 1 for biased
	size   int     // |D_m|: plain aggregation weights by dataset size
}

// plannedDevice is one sampled device's decision-phase outcome, later filled
// in with its execution-phase result.
type plannedDevice struct {
	m      int     // device id
	weight float64 // 1/(|M_n|·q) for unbiased strategies, 1 for biased
	upload bool    // false when the upload-failure coin dropped the result
	err    error
}

// edgePlan is everything one step produces for one edge: the decision-phase
// output (the planned devices, or the decide error), plus the pooled buffers
// the execution phase fills per planned device (slot i belongs to devs[i]):
// its gradient-norm window norms[i·I:(i+1)·I], its error and, when its upload
// survives, its trained parameters uploads[i]. The buffers are valid until
// the edge's next decide, which is after the step's observations are merged
// and its uploads aggregated.
type edgePlan struct {
	devs    []plannedDevice
	err     error
	norms   []float64
	uploads [][]float64
}

// trainErr returns the plan's first local-update error in member order.
func (p *edgePlan) trainErr() error {
	for _, pd := range p.devs {
		if pd.err != nil {
			return fmt.Errorf("device %d: %w", pd.m, pd.err)
		}
	}
	return nil
}

// uploaded counts the planned devices whose upload survived.
func (p *edgePlan) uploaded() int {
	k := 0
	for _, pd := range p.devs {
		if pd.upload {
			k++
		}
	}
	return k
}

// reserve sizes the slot buffers for the devices just planned, keeping what
// earlier steps grew. A new upload slot is allocated once, at the model's
// size, so ParamsInto's per-layer appends never regrow it.
func (p *edgePlan) reserve(epochs, numParams int) {
	if need := len(p.devs) * epochs; len(p.norms) < need {
		p.norms = make([]float64, need)
	}
	for len(p.uploads) < len(p.devs) {
		p.uploads = append(p.uploads, make([]float64, 0, numParams))
	}
}

// Run executes Algorithm 1 and returns the training history.
//
// Every time step runs in three phases: a *decision* phase draws all of the
// step's randomness (strategy probabilities, sampling coins, upload-failure
// coins) from the per-edge RNG streams in member order — edges of different
// shards decide in parallel, which is safe because each edge's stream,
// context and plan are private to it and every draw within an edge stays
// serial; a parallel *execution* phase dispatches the sampled devices' local
// SGD to a bounded worker pool shared across edges; a *finalize* phase
// aggregates each edge's uploads in member order, and the step's collect
// point hands the strategy its experiences in edge then member order.
// Because no random decision depends on execution timing and every reduction
// is order-fixed, the result is bit-identical for every Config.Workers value.
func (e *Engine) Run(opts ...RunOption) (*Result, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	res := &Result{History: &metrics.History{}}

	e.pool = parallel.NewPool(e.cfg.workers())
	defer func() {
		e.pool.Close()
		e.pool = nil
	}()
	if e.tel != nil {
		e.tel.SetShardCount(len(e.shards))
	}

	tr := e.tel.Trace()
	tr.Emit(&telemetry.Event{Type: telemetry.EventRun, Run: &telemetry.RunEvent{
		Strategy: e.strategy.Name(),
		Seed:     e.cfg.Seed,
		Devices:  e.nDevices,
		Edges:    e.nEdges,
		Steps:    e.cfg.Steps,
		Capacity: e.capacity,
		Every:    tr.Config().Every,
		MaxEdges: tr.Config().MaxEdges,
	}})
	lastAcc := 0.0
	emitDone := func() {
		tr.Emit(&telemetry.Event{Type: telemetry.EventDone, Step: res.StepsRun, Done: &telemetry.DoneEvent{
			StepsRun: res.StepsRun, TotalSampled: res.TotalSampled, FinalAccuracy: lastAcc,
		}})
	}

	modelBytes := int64(len(e.global)) * 8
	for t := 0; t < e.cfg.Steps; t++ {
		// One mobility advance per step, on the Run goroutine, positions the
		// member index the shards read.
		if err := e.BeginStep(t); err != nil {
			return nil, fmt.Errorf("hfl: step %d: %w", t, err)
		}
		// Fan the step out over the shards: each runs decide → execute →
		// finalize for its own edge range (decide and finalize serially, in
		// edge order, on its goroutine; device training on the shared pool),
		// and ForEach's return is the collect point. No RNG stream,
		// experience write or model reduction crosses a shard boundary
		// mid-step, so the cross-shard interleaving cannot reach a value
		// (DESIGN.md §11).
		parallel.ForEach(len(e.shards), len(e.shards), func(i int) { e.shards[i].runStep(t) })
		if err := e.collectStep(t); err != nil {
			return nil, err
		}

		// Serial accounting pass in edge order: communication and sampling
		// telemetry, plus the edge-ordered emission of decision events.
		var stepTel stepSamplingStats
		stepSampled := 0
		for n := range e.plans {
			trained, uploaded := len(e.plans[n].devs), e.plans[n].uploaded()
			stepSampled += uploaded
			res.Comm.DeviceDownlinkBytes += int64(trained) * modelBytes
			res.Comm.DeviceUplinkBytes += int64(uploaded) * modelBytes
			res.Comm.DeviceDownloads += int64(trained)
			res.Comm.DeviceUploads += int64(uploaded)
			if e.tel != nil {
				e.tel.Add(telemetry.CounterDevicesTrained, int64(trained))
				e.tel.Add(telemetry.CounterDevicesUploaded, int64(uploaded))
				e.tel.Add(telemetry.CounterUploadsDropped, int64(trained-uploaded))
				e.tel.Add(telemetry.CounterDeviceDownlinkBytes, int64(trained)*modelBytes)
				e.tel.Add(telemetry.CounterDeviceUplinkBytes, int64(uploaded)*modelBytes)
				e.observeEdge(t, n, &stepTel)
			}
		}
		if e.tel != nil {
			e.flushStepTelemetry(&stepTel)
		}
		res.SampledPerStep = append(res.SampledPerStep, stepSampled)
		res.TotalSampled += stepSampled
		res.StepsRun = t + 1
		if o.stepFn != nil {
			o.stepFn(t, stepSampled)
		}

		if e.CloudRound(t) {
			e.Reduce(t, e.edge)
			for _, w := range e.edge {
				copy(w, e.global)
			}
			// Every edge uploads its model and downloads the new global.
			res.Comm.CloudBytes += 2 * int64(e.nEdges) * modelBytes
			res.Comm.CloudTransfers += 2 * int64(e.nEdges)
			if e.observer != nil {
				e.observer.CloudRound(t + 1)
			}
			if e.tel != nil {
				e.tel.Add(telemetry.CounterCloudBytes, 2*int64(e.nEdges)*modelBytes)
				if e.observer != nil {
					never, total, most := 0, 0, 0
					for _, n := range e.pulls {
						if n == 0 {
							never++
						}
						total += n
						most = max(most, n)
					}
					e.tel.SetGauge(telemetry.GaugeNeverPulled, float64(never))
					e.tel.SetGauge(telemetry.GaugeMaxPulls, float64(most))
					tr.Emit(&telemetry.Event{Type: telemetry.EventEstimator, Step: t + 1, Estimator: &telemetry.EstimatorEvent{
						Devices: e.nDevices, NeverPulled: never, TotalPulls: total, MaxPulls: most,
					}})
				}
			}
		}
		p, evaluated, err := e.EndStep(t)
		if err != nil {
			return nil, fmt.Errorf("hfl: step %d: %w", t, err)
		}
		if evaluated {
			lastAcc = p.Accuracy
			res.History.Add(p)
			if o.evalFn != nil {
				o.evalFn(p.Step, p.Accuracy, p.Loss)
			}
			if o.hasTgt && p.Accuracy >= o.target {
				res.ReachedTarget = true
				res.TargetStep = t + 1
				break
			}
		}
	}
	emitDone()
	return res, nil
}

// stepSamplingStats accumulates one step's cross-edge sampling observations,
// folded serially during the finalize loop and flushed once per step.
type stepSamplingStats struct {
	ucbMin, ucbMax, ucbSum float64
	ucbCount               int
	probMass               float64
	floorClamps            int64
	ceilClamps             int64
}

// observeEdge folds one edge's decision into the step accumulator and, when
// the trace records this decision, emits the complete decision event. It
// runs on the sequential finalize path in edge order, which is what makes
// trace output deterministic; the decide-phase buffers it reads (probs, the
// context's estimates, coins) stay valid until the edge's next decide.
func (e *Engine) observeEdge(t, n int, acc *stepSamplingStats) {
	members := e.Members(n)
	e.tel.Observe(telemetry.HistEdgeMembers, int64(len(members)))
	e.tel.Observe(telemetry.HistEdgeSampled, int64(len(e.plans[n].devs)))
	if len(members) == 0 {
		return // edgeDecide returned early; decide-state buffers are stale
	}
	st := &e.decide[n]
	if len(st.probs) < len(members) {
		return
	}
	probs := st.probs[:len(members)]
	for _, q := range probs {
		acc.probMass += q
		if st.ctx.Floor > 0 && q <= st.ctx.Floor {
			acc.floorClamps++
		}
		if q >= 1 {
			acc.ceilClamps++
		}
	}
	estimates := st.ctx.Estimates
	for _, g := range estimates {
		if acc.ucbCount == 0 || g < acc.ucbMin {
			acc.ucbMin = g
		}
		if acc.ucbCount == 0 || g > acc.ucbMax {
			acc.ucbMax = g
		}
		acc.ucbSum += g
		acc.ucbCount++
	}
	tr := e.tel.Trace()
	if !tr.DecisionActive(t, n) {
		return
	}
	// Emit encodes synchronously, so handing it the engine's live buffers is
	// safe: they are not touched again until the next decide phase.
	tr.Emit(&telemetry.Event{Type: telemetry.EventDecision, Step: t, Decision: &telemetry.DecisionEvent{
		Edge:      n,
		Members:   members,
		Estimates: estimates,
		Probs:     probs,
		Coins:     st.coins,
		Sampled:   st.sampledIDs,
		Dropped:   st.droppedIDs,
	}})
}

// flushStepTelemetry publishes the step accumulator's gauges and counters.
func (e *Engine) flushStepTelemetry(acc *stepSamplingStats) {
	e.tel.Add(telemetry.CounterProbFloorClamps, acc.floorClamps)
	e.tel.Add(telemetry.CounterProbCeilClamps, acc.ceilClamps)
	e.tel.SetGauge(telemetry.GaugeProbMass, acc.probMass)
	if acc.ucbCount > 0 {
		e.tel.SetGauge(telemetry.GaugeUCBMin, acc.ucbMin)
		e.tel.SetGauge(telemetry.GaugeUCBMean, acc.ucbSum/float64(acc.ucbCount))
		e.tel.SetGauge(telemetry.GaugeUCBMax, acc.ucbMax)
	}
}

// edgeDecide performs the sampling decisions for one edge at one time step
// (Algorithm 1, lines 3-5) and records them in e.plans[n]. It draws from the
// edge's deterministic RNG stream in member order: strategy probabilities
// first, then per member one sampling coin and — for sampled devices under a
// positive failure probability — one upload-failure coin. Local updates never
// touch this stream, so pulling the failure coin forward from the serial
// post-training position leaves every draw at the same stream offset.
//
// All per-step machinery is pooled in e.decide[n]: the RNG is reseeded to
// the det.EdgeCoin stream a fresh det.NewRand would start (Seed is one store
// into the stream's word), the context and its closures are built once per
// edge, and probabilities land in a reused buffer. Distinct edges may decide
// concurrently; everything mutated here is private to edge n.
//
//machlint:allocfree
func (e *Engine) edgeDecide(t, n int) error {
	plan := &e.plans[n]
	plan.devs = plan.devs[:0]
	members := e.Members(n)
	if len(members) == 0 {
		return nil
	}
	st := &e.decide[n]
	if st.rng == nil {
		st.rng = det.NewRand(0)
		st.ctx.Edge = n
		st.ctx.Capacity = e.capacity
		st.ctx.RNG = st.rng
		st.ctx.ClassDist = func(m int) []float64 {
			return e.devices[m].dist
		}
		st.ctx.ProbeGradNorm = func(m int) float64 {
			return e.probeGradNorm(st.ctx.Step, n, m)
		}
	}
	st.rng.Seed(det.EdgeCoin(e.cfg.Seed, t, n))
	st.ctx.Step = t
	st.ctx.Members = members
	st.ctx.Estimates, st.ctx.Floor = nil, 0
	st.probs = e.strategy.ProbabilitiesInto(&st.ctx, st.probs)
	probs := st.probs
	if len(probs) != len(members) {
		return fmt.Errorf("strategy %q returned %d probabilities for %d members", e.strategy.Name(), len(probs), len(members))
	}
	// DecisionActive is a pure function of (step, edge), so this agrees with
	// the finalize phase's emission gate without any shared state.
	tracing := e.tel.Trace().DecisionActive(t, n)
	if tracing {
		st.coins = st.coins[:0]
		st.sampledIDs = st.sampledIDs[:0]
		st.droppedIDs = st.droppedIDs[:0]
	}
	unbiased := e.strategy.Unbiased()
	for i, m := range members {
		q := probs[i]
		if !(q >= 0 && q <= 1) {
			return fmt.Errorf("strategy %q gave device %d probability %v, outside [0, 1]", e.strategy.Name(), m, q)
		}
		coin := st.rng.Float64()
		if tracing {
			st.coins = append(st.coins, coin)
		}
		if coin >= q {
			continue // not sampled: 1^t_{m,n} = 0
		}
		upload := true
		if e.cfg.UploadFailureProb > 0 && st.rng.Float64() < e.cfg.UploadFailureProb {
			upload = false // device moved away before uploading (see Config)
		}
		if tracing {
			st.sampledIDs = append(st.sampledIDs, m)
			if !upload {
				st.droppedIDs = append(st.droppedIDs, m)
			}
		}
		weight := 1.0
		if unbiased {
			weight = 1 / (float64(len(members)) * q) // Eq. (5)
		}
		plan.devs = append(plan.devs, plannedDevice{m: m, weight: weight, upload: upload})
	}
	plan.reserve(e.cfg.LocalEpochs, len(e.global))
	return nil
}

// edgeFinalize merges the surviving uploads of one edge's executed plan into
// the edge model in member order (Algorithm 1, lines 6-11). The uploads are
// the plan's slot buffers (see edgePlan).
func (e *Engine) edgeFinalize(n int, s *shardState) {
	plan := &e.plans[n]
	results := s.aggResults[:0]
	for i, pd := range plan.devs {
		if pd.upload {
			results = append(results, localResult{params: plan.uploads[i], weight: pd.weight, size: e.devices[pd.m].data.Len()})
		}
	}
	e.aggregateEdge(n, results, e.strategy.Unbiased())
	s.aggResults = results[:0] // keep the grown capacity for the shard's next edge
}

// aggregateEdge merges sampled local models into the edge model. For
// unbiased strategies the inverse-probability weights of Eq. (5) are applied
// to the model updates (or, with AggLiteralEq5, to the models themselves); for
// biased active-selection strategies a plain average over participants is
// used. The edge keeps a double buffer: the outgoing model becomes the next
// aggregation's scratch, so steady-state aggregation does not allocate.
//
//machlint:allocfree
func (e *Engine) aggregateEdge(n int, results []localResult, unbiased bool) {
	if len(results) == 0 {
		return // no participants: edge model carries over
	}
	cur := e.edge[n]
	next := e.aggNext[n]
	if len(next) != len(cur) {
		next = make([]float64, len(cur))
	}
	mode := e.cfg.aggregation()
	if !unbiased {
		mode = AggPlain // active selection always plain-averages
	}
	switch mode {
	case AggPlain:
		// FedAvg over participants, weighted by local dataset size |D_m|
		// (equal sizes reduce to a plain mean, the paper's simplification).
		total := 0
		for _, r := range results {
			total += r.size
		}
		clear(next)
		for _, r := range results {
			// total == 0 can only mean every participant reported an empty
			// dataset; fall back to a plain mean instead of dividing by 0.
			w := 1.0 / float64(len(results))
			if total > 0 {
				w = float64(r.size) / float64(total)
			}
			tensor.Axpy(next, w, r.params)
		}
	case AggLiteralEq5:
		clear(next)
		for _, r := range results {
			tensor.Axpy(next, r.weight, r.params)
		}
	default: // AggInverseUpdate: w_n ← w_n + Σ weight·(w_m − w_n)
		copy(next, cur)
		for _, r := range results {
			tensor.AxpyDiff(next, r.weight, r.params, cur)
		}
	}
	e.edge[n], e.aggNext[n] = next, cur
}

// probeGradNorm measures the true squared stochastic-gradient norm of device
// m under edge n's current model (used by MACH-P): one local step at a zero
// learning rate, which moves nothing. It runs on a borrowed trainer, so edges
// on different shards probe concurrently; the value depends only on (seed, t,
// n, m) — the probed model and the batch stream — never on the trainer.
func (e *Engine) probeGradNorm(t, n, m int) float64 {
	e.tel.Add(telemetry.CounterProbes, 1)
	tr := e.trainers.Borrow(e.cfg.BatchSize)
	defer e.trainers.Release(tr)
	rng := det.NewRand(det.Probe(e.cfg.Seed, t, m))
	var gn [1]float64
	if err := tr.LocalUpdate(e.edge[n], e.devices[m].data, rng, 0, gn[:]); err != nil {
		// The strategy callback has no error channel, and a length mismatch
		// here means the engine's networks are wired wrong — fail loudly
		// instead of silently scoring the device as zero.
		panic(fmt.Sprintf("hfl: probe gradient of device %d (step %d, edge %d): %v", m, t, n, err))
	}
	return gn[0]
}
