package hfl

import (
	"fmt"
	"math/rand"

	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/parallel"
	"github.com/mach-fl/mach/internal/telemetry"
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
// (internal/fed) instead measures real wire bytes on its connections and
// sets Measured.
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

// edgePlan is everything one step produces for one edge but its folded
// model: the step, the decision and the decide error, then the local-update
// error that ended the edge's task with the pick it hit, and each pick's
// gradient-norm window norms[i·I:(i+1)·I] (pooled; valid until the edge's
// next decide, after the collect point).
type edgePlan struct {
	Decision
	step    int
	err     error
	failErr error
	failAt  int
	norms   []float64
}

// trainErr returns the local-update error that ended the edge's task.
func (p *edgePlan) trainErr() error {
	if p.failErr == nil {
		return nil
	}
	return fmt.Errorf("device %d: %w", p.Picks[p.failAt].Device, p.failErr)
}

// reserve sizes the norm buffer for the devices just picked, keeping what
// earlier steps grew and growing append-style.
func (p *edgePlan) reserve(epochs int) {
	if need := len(p.Picks) * epochs; len(p.norms) < need {
		p.norms = append(p.norms, make([]float64, need-len(p.norms))...)
	}
}

// Run executes Algorithm 1 and returns the training history.
//
// Every time step runs in three phases: a *decision* phase draws all of the
// step's randomness (strategy probabilities, sampling coins, upload-failure
// coins) from the per-edge RNG streams in member order — edges of different
// shards decide in parallel, which is safe because each edge's stream,
// context and plan are private to it and every draw within an edge stays
// serial; a parallel *execution* phase runs one task per edge on a worker
// pool shared across edges, training its devices and folding their uploads
// in member order (Eq. 5); a *finalize* phase swaps the folded models in,
// and the collect point hands the strategy its experiences in edge then
// member order.
// Because no random decision depends on execution timing and every reduction
// is order-fixed, the result is bit-identical for every Config.Workers value.
func (e *Engine) Run(opts ...RunOption) (*Result, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	res := &Result{History: &metrics.History{}}

	e.pool = parallel.NewPool(e.cfg.workers())
	e.evalGroup = e.pool.Group()
	for _, s := range e.shards {
		s.group = e.pool.Group()
	}
	// The shards fan out on a pool of their own, a worker each: a shard
	// waits on its edge tasks, so it must not hold a worker they need.
	fan := parallel.NewPool(len(e.shards))
	shards := fan.Group()
	defer func() {
		fan.Close()
		e.pool.Close()
		e.pool, e.evalGroup = nil, nil
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
		// edge order, on its worker; edge tasks on the shared pool), and
		// the fan-out's Wait is the collect point. No RNG stream, experience
		// write or model reduction crosses a shard boundary mid-step, so the
		// cross-shard interleaving cannot reach a value (DESIGN.md §11).
		for i, s := range e.shards {
			s.t = t
			shards.GoIndex(e.shardTask, i)
		}
		shards.Wait()
		if err := e.collectStep(t); err != nil {
			return nil, err
		}

		// Serial accounting pass in edge order: communication and sampling
		// telemetry, plus the edge-ordered emission of decision events.
		var stepTel stepSamplingStats
		stepSampled := 0
		for n := range e.plans {
			trained, uploaded := len(e.plans[n].Picks), e.plans[n].Uploads
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
				if e.observer != nil && tr != nil {
					never, total, most := 0, 0, 0
					for _, n := range e.pulls {
						if n == 0 {
							never++
						}
						total += n
						most = max(most, n)
					}
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

// stepSamplingStats accumulates one step's cross-edge probability clamps,
// folded serially during the accounting pass and flushed once per step.
type stepSamplingStats struct {
	floorClamps int64
	ceilClamps  int64
}

// observeEdge folds one edge's decision into the step accumulator and, when
// the trace records this decision, emits the complete decision event. It
// runs on the sequential accounting pass in edge order, which is what makes
// trace output deterministic; the decide-phase buffers it reads (probs, the
// context's estimates, coins) stay valid until the edge's next decide.
func (e *Engine) observeEdge(t, n int, acc *stepSamplingStats) {
	members := e.Members(n)
	e.tel.Observe(telemetry.HistEdgeSampled, int64(len(e.plans[n].Picks)))
	if len(members) == 0 {
		return // edgeDecide returned early; decide-state buffers are stale
	}
	st := &e.decide[n]
	if len(st.probs) < len(members) {
		return
	}
	probs := st.probs[:len(members)]
	for _, q := range probs {
		if st.ctx.Floor > 0 && q <= st.ctx.Floor {
			acc.floorClamps++
		}
		if q >= 1 {
			acc.ceilClamps++
		}
	}
	tr := e.tel.Trace()
	if !tr.DecisionActive(t, n) {
		return
	}
	plan := &e.plans[n]
	st.sampledIDs, st.droppedIDs = st.sampledIDs[:0], st.droppedIDs[:0]
	for _, p := range plan.Picks {
		st.sampledIDs = append(st.sampledIDs, p.Device)
		if !p.Upload {
			st.droppedIDs = append(st.droppedIDs, p.Device)
		}
	}
	// Emit encodes synchronously, so handing it the engine's live buffers is
	// safe: they are not touched again until the next decide phase.
	tr.Emit(&telemetry.Event{Type: telemetry.EventDecision, Step: t, Decision: &telemetry.DecisionEvent{
		Edge:      n,
		Members:   members,
		Estimates: st.ctx.Estimates,
		Probs:     probs,
		Coins:     plan.Coins,
		Sampled:   st.sampledIDs,
		Dropped:   st.droppedIDs,
	}})
}

// flushStepTelemetry publishes the step accumulator's counters.
func (e *Engine) flushStepTelemetry(acc *stepSamplingStats) {
	e.tel.Add(telemetry.CounterProbFloorClamps, acc.floorClamps)
	e.tel.Add(telemetry.CounterProbCeilClamps, acc.ceilClamps)
}

// edgeDecide performs the sampling decisions for one edge at one time step
// (Algorithm 1, lines 3-5) and records them in e.plans[n]. It draws from the
// edge's deterministic RNG stream in member order: strategy probabilities
// first, then Decision.Decide's coins. Local updates never touch this stream,
// so pulling the failure coin forward from the serial post-training position
// leaves every draw at the same stream offset.
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
	members := e.Members(n)
	plan.step, plan.Picks, plan.Uploads, plan.failErr = t, plan.Picks[:0], 0, nil
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
			return e.dists[m]
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
	if len(st.probs) != len(members) {
		return fmt.Errorf("strategy %q returned %d probabilities for %d members", e.strategy.Name(), len(st.probs), len(members))
	}
	// DecisionActive is a pure function of (step, edge), so this agrees with
	// the finalize phase's emission gate without any shared state.
	plan.Trace = e.tel.Trace().DecisionActive(t, n)
	size := func(i int) int { return e.data[members[i]].Len() }
	if err := plan.Decide(st.rng, members, st.probs, size, e.aggregation(), e.cfg.UploadFailureProb); err != nil {
		return fmt.Errorf("strategy %q: %w", e.strategy.Name(), err)
	}
	plan.reserve(e.cfg.LocalEpochs)
	return nil
}

// Pick is one device an edge sampled at a step (1^t_{m,n} = 1 in
// Algorithm 1) and the weight its trained model folds in at.
type Pick struct {
	Device int     // the device's ID
	Member int     // its position in the step's members
	Weight float64 // its fold weight (Decision.Decide)
	Upload bool    // false when the upload-failure coin dropped its result
}

// Decision is the decision half of one edge's step — Algorithm 1's sampling
// coins and the fold weights of Eq. (5) or its plain variant — and the one
// code that makes it, for Engine and for internal/fed's edge servers alike.
// Its buffers serve step after step.
type Decision struct {
	Picks   []Pick // the sampled members, in member order
	Uploads int    // how many picks upload
	// With Trace set, Decide records every member's sampling coin in Coins,
	// in member order.
	Trace bool
	Coins []float64
}

// Decide draws one edge's step from rng, which the caller has placed on the
// step's det.EdgeCoin stream: per member in order, one coin against the
// member's probability probs[i], which must lie in [0, 1], sampling the
// member when the coin falls below it, and per sampled member, when failProb
// is positive, one upload-failure coin. Then it weights the picks for agg:
// 1/(|M|·q) (Eq. 5), or under AggPlain |D_m|/Σ|D| over the uploads, where
// size(i) is member i's |D_m| (asked under AggPlain only, of picks only).
//
//machlint:allocfree
func (d *Decision) Decide(rng *rand.Rand, members []int, probs []float64, size func(member int) int, agg Aggregation, failProb float64) error {
	if k := cap(d.Picks); k < len(members) { // room for every member: no append below grows it
		d.Picks = append(d.Picks[:k], make([]Pick, len(members)-k)...)
	}
	d.Picks, d.Uploads, d.Coins = d.Picks[:0], 0, d.Coins[:0]
	for i, m := range members {
		q := probs[i]
		if !(q >= 0 && q <= 1) {
			return fmt.Errorf("device %d sampling probability %v, outside [0, 1]", m, q)
		}
		coin := rng.Float64()
		if d.Trace {
			d.Coins = append(d.Coins, coin)
		}
		if coin >= q {
			continue // not sampled: 1^t_{m,n} = 0
		}
		// The device may move away before uploading (Config.UploadFailureProb).
		upload := !(failProb > 0 && rng.Float64() < failProb)
		if upload {
			d.Uploads++
		}
		d.Picks = append(d.Picks, Pick{Device: m, Member: i, Weight: 1 / (float64(len(members)) * q), Upload: upload})
	}
	if agg == AggPlain {
		d.plainWeights(size)
	}
	return nil
}

// plainWeights gives each upload the weight |D_m|/Σ|D| over the uploads,
// size(i) being member i's |D_m|: FedAvg over participants (equal sizes: a
// plain mean, the paper's simplification).
//
//machlint:allocfree
func (d *Decision) plainWeights(size func(member int) int) {
	total := 0
	for _, p := range d.Picks {
		if p.Upload {
			total += size(p.Member)
		}
	}
	for i := range d.Picks {
		if p := &d.Picks[i]; p.Upload {
			p.Weight = float64(size(p.Member)) / float64(total)
		}
	}
}

// foldStart readies edge n's fold target and returns it with the fold base:
// a copy of w_n taking w·(θ − w_n) per upload under AggInverseUpdate, else
// zero taking w·θ (base nil). With no uploads it leaves the target be.
//
//machlint:allocfree
func (e *Engine) foldStart(n int) (next, base []float64) {
	cur, next := e.edge[n], e.aggNext[n]
	if e.aggregation() == AggInverseUpdate {
		base = cur
	}
	if e.plans[n].Uploads > 0 {
		if base != nil {
			copy(next, cur)
		} else {
			clear(next)
		}
	}
	return next, base
}

// edgeFinalize swaps edge n's folded model in (Algorithm 1, line 11); an
// edge whose uploads all dropped keeps its model.
func (e *Engine) edgeFinalize(n int) {
	if e.plans[n].Uploads > 0 {
		e.edge[n], e.aggNext[n] = e.aggNext[n], e.edge[n]
	}
}

// aggregation returns the edge rule this run folds with: AggPlain for active
// selection, which always plain-averages, else the configured mode
// (AggInverseUpdate when unset).
func (e *Engine) aggregation() Aggregation {
	switch {
	case !e.strategy.Unbiased():
		return AggPlain
	case e.cfg.Aggregation == 0:
		return AggInverseUpdate
	}
	return e.cfg.Aggregation
}

// probeGradNorm measures the true squared stochastic-gradient norm of device
// m under edge n's current model (used by MACH-P): one local step at a zero
// learning rate, which moves nothing. It runs on a borrowed trainer, whose
// stream it re-seeds to det.Probe(seed, t, m), so edges on different shards
// probe concurrently and the value depends only on (seed, t, n, m) — the
// probed model and the batch draws — never on the trainer.
func (e *Engine) probeGradNorm(t, n, m int) float64 {
	tr := e.trainers.Borrow(e.cfg.BatchSize)
	defer e.trainers.Release(tr)
	var gn [1]float64
	if err := tr.LocalUpdate(e.edge[n], e.data[m], det.Probe(e.cfg.Seed, t, m), 0, gn[:]); err != nil {
		// The strategy callback has no error channel, and a length mismatch
		// here means the engine's networks are wired wrong — fail loudly
		// instead of silently scoring the device as zero.
		panic(fmt.Sprintf("hfl: probe gradient of device %d (step %d, edge %d): %v", m, t, n, err))
	}
	return gn[0]
}
