package hfl

import (
	"fmt"
	"math/rand"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/parallel"
	"github.com/mach-fl/mach/internal/telemetry"
	"github.com/mach-fl/mach/internal/tensor"
)

// Cloud is the cloud's half of Algorithm 1: the mobility plane, the global
// model w^t with its Eq. (6) reduce every T_g steps, and the evaluator with
// its schedule and run telemetry. The in-process Engine is a Cloud plus its
// edges; the distributed fed.Cloud is a Cloud plus the Edge.Step RPC
// fan-out, so both stacks position, reduce and evaluate with this code.
//
// A step is BeginStep, the edges' work on Members, Reduce when CloudRound
// reports a cloud round, and EndStep.
type Cloud struct {
	cfg  Config
	test *dataset.Dataset
	// tel is the observation sink; nil (the default) disables all
	// instrumentation at zero cost. Telemetry reads simulation state but
	// never feeds back into it (DESIGN.md §8).
	tel *telemetry.Telemetry

	// Streaming mobility plane (DESIGN.md §12): the cloud positions itself
	// from a StepSource — a dense *Schedule via its adapter, or a true
	// streaming source — keeping only an O(Devices) window, the current
	// attachment row, and the member index repaired from its move stream.
	// nEdges/nDevices cache the source's Dims.
	win         *mobility.Window
	memberIndex *mobility.MemberIndex
	nEdges      int
	nDevices    int
	// transStats, when attached, folds the move stream into an incremental
	// edge-transition model (observational only).
	transStats *mobility.OnlineTransitionStats

	global    []float64 // cloud model parameters w^t
	cloudNext []float64 // Eq. (6) double-buffer
	capacity  float64   // K_n, identical across edges as in the paper
	evalNet   *nn.Network
	evalIdx   []int // the test set's sample indices, 0..n-1
	evalShard []evalShardState
	// evalSums' arguments for its shard tasks (evalTask, built once), and
	// their group on the pool of an engine's Run (nil outside one).
	evalIn    []int
	evalPreds []int
	evalTask  func(s int)
	evalGroup *parallel.Group
	stepStart int64 // the open step's clock reading
}

// evalShards is how many shards test-set evaluation splits into. It is a
// constant, not a function of the core count, so evaluation losses reduce
// identically on every machine.
const evalShards = 8

// evalChunk is how many rows an evaluation shard forwards at once. Each
// shard's buffers and its network's activations are sized by it, not by the
// test set, so the evaluator's footprint is O(evalShards·evalChunk) samples.
const evalChunk = 16

// evalShardState is one evaluation shard's private network, chunk buffers
// and sums, allocated once: every forward has evalChunk rows, so the
// network's layer buffers are reused as-is too.
type evalShardState struct {
	net *nn.Network
	x   *tensor.Tensor // [evalChunk, InC, InH, InW]
	y   []int          // the chunk's labels
	idx []int          // the chunk's sample indices

	correct int // the shard's sums over its slice of the last evaluation
	lossSum float64
}

// NewCloud checks the mobility source and the test set against cfg and
// draws the initial global model from arch at the run's seed. It reads
// cfg's Steps, CloudInterval, EvalEvery, Participation, Seed and Workers,
// which the caller has validated. src may be a dense *mobility.Schedule
// (its StepSource adapter replays the matrix) or a true streaming source —
// runs are bit-identical between a source and its Materialize'd twin.
func NewCloud(cfg Config, arch ArchFunc, src mobility.StepSource, test *dataset.Dataset) (*Cloud, error) {
	if src == nil {
		return nil, fmt.Errorf("hfl: nil schedule")
	}
	// A dense schedule's adapter trusts its matrix, so the matrix is checked
	// here, once.
	if s, ok := src.(*mobility.Schedule); ok {
		if s == nil {
			return nil, fmt.Errorf("hfl: nil schedule")
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("hfl: invalid schedule: %w", err)
		}
	}
	nEdges, nDevices, nSteps := src.Dims()
	if nEdges <= 0 || nDevices <= 0 || nSteps <= 0 {
		return nil, fmt.Errorf("hfl: mobility source dims %d/%d/%d must be positive", nEdges, nDevices, nSteps)
	}
	if nSteps < cfg.Steps {
		return nil, fmt.Errorf("hfl: schedule covers %d steps, config needs %d", nSteps, cfg.Steps)
	}
	if test == nil || test.Len() == 0 {
		return nil, fmt.Errorf("hfl: empty test set")
	}
	net, err := arch(rand.New(rand.NewSource(det.ModelInit(cfg.Seed))))
	if err != nil {
		return nil, fmt.Errorf("hfl: build architecture: %w", err)
	}
	c := &Cloud{
		cfg:         cfg,
		test:        test,
		win:         mobility.NewWindow(src),
		memberIndex: mobility.NewMemberIndexWindow(0, nEdges),
		nEdges:      nEdges,
		nDevices:    nDevices,
		global:      net.ParamVector(),
		capacity:    cfg.Participation * float64(nDevices) / float64(nEdges),
		evalNet:     net,
	}
	c.evalTask = c.scoreShard
	return c, nil
}

// Capacity returns K_n, the per-edge expected participation budget.
func (c *Cloud) Capacity() float64 { return c.capacity }

// GlobalParams returns a copy of the current global model parameters.
func (c *Cloud) GlobalParams() []float64 { return c.AppendGlobal(nil) }

// AppendGlobal appends the current global model parameters to dst.
func (c *Cloud) AppendGlobal(dst []float64) []float64 { return append(dst, c.global...) }

// SetTelemetry attaches a telemetry sink (nil detaches). Call it before the
// run (Engine.Run, fed's Cloud.Run); attaching mid-run races with the step
// loop. Telemetry is observational only: the attached sink never changes
// what is computed, and identically-seeded runs are bit-identical with and
// without it.
func (c *Cloud) SetTelemetry(t *telemetry.Telemetry) { c.tel = t }

// SetTransitionStats attaches an online transition-statistics accumulator
// fed from the move stream (nil detaches). Call it before the run. The
// statistics are observational only: attaching them never changes what is
// computed.
func (c *Cloud) SetTransitionStats(s *mobility.OnlineTransitionStats) { c.transStats = s }

// Members returns M^t_n, edge n's members at the step BeginStep opened.
// The slice is valid until the next BeginStep.
//
//machlint:allocfree
func (c *Cloud) Members(n int) []int { return c.memberIndex.Members(n) }

// BeginStep opens step t: it starts the step's clock and positions the
// mobility window at t, repairing the member index from the step's moves.
func (c *Cloud) BeginStep(t int) error {
	c.stepStart = c.tel.Now()
	return c.advanceMobility(t)
}

// advanceMobility positions the mobility window at step t, repairs the
// member index from the step's moves and feeds the transition statistics.
// Advancing to the current position is a no-op.
//
//machlint:allocfree
func (c *Cloud) advanceMobility(t int) error {
	prev := c.win.Pos()
	if t == prev {
		return nil
	}
	moves, rebuilt, err := c.win.Advance(t)
	if err != nil {
		return err
	}
	c.memberIndex.AdvanceWith(t, c.win.Row(), moves, rebuilt)
	if c.transStats != nil {
		if !rebuilt {
			c.transStats.ObserveStep(moves)
		} else if prev >= 0 || t > 0 {
			// A reposition that skipped steps: the intermediate transitions
			// are unobservable. Initial positioning at step 0 skips nothing.
			c.transStats.ObserveJump()
		}
	}
	return nil
}

// CloudRound reports whether step t ends with an edge-to-cloud round, every
// T_g steps.
func (c *Cloud) CloudRound(t int) bool { return (t+1)%c.cfg.CloudInterval == 0 }

// Reduce is the cloud round's Eq. (6): the global model becomes
// Σ_n (|M^t_n|/|M|)·edges[n], folded with tensor.Axpy serially in edge order
// and skipping edges without members, weighted by the members of the open
// step t. It double-buffers the global vector, so cloud rounds stop
// allocating after the first.
//
//machlint:allocfree
func (c *Cloud) Reduce(t int, edges [][]float64) {
	sp := c.tel.StartSpan(telemetry.SpanCloudReduce, telemetry.DeriveSpanID(telemetry.SpanStep, t, -1, -1), t, -1, -1)
	total := 0
	for n := range edges {
		total += len(c.Members(n))
	}
	next := c.cloudNext
	if len(next) != len(c.global) {
		next = make([]float64, len(c.global))
	} else {
		clear(next)
	}
	for n, w := range edges {
		if k := len(c.Members(n)); k > 0 {
			tensor.Axpy(next, float64(k)/float64(total), w)
		}
	}
	c.global, c.cloudNext = next, c.global
	sp.End()
	c.tel.Add(telemetry.CounterCloudRounds, 1)
}

// EndStep closes step t. When an evaluation is due — every EvalEvery steps
// (every cloud round when 0), and at the last step — it scores the global
// model on the test set and returns the point; then it records the step.
func (c *Cloud) EndStep(t int) (p metrics.Point, evaluated bool, err error) {
	due := c.CloudRound(t)
	if c.cfg.EvalEvery > 0 {
		due = (t+1)%c.cfg.EvalEvery == 0
	}
	if due || t == c.cfg.Steps-1 {
		if p, err = c.evalStep(t); err != nil {
			return p, false, err
		}
		evaluated = true
	}
	c.tel.Add(telemetry.CounterSteps, 1)
	end := c.tel.Now()
	c.tel.Observe(telemetry.HistStepNS, end-c.stepStart)
	c.tel.RecordSpan(telemetry.SpanStep, 0, t, -1, -1, c.stepStart, end)
	return p, evaluated, nil
}

// evalStep evaluates the global model at step t and records the evaluation:
// its duration as a histogram sample, a span under the step span and — when
// the trace records this step — a phase event, then the counter, the gauges
// and the trace's eval event.
func (c *Cloud) evalStep(t int) (metrics.Point, error) {
	start := c.tel.Now()
	acc, loss, err := c.evaluate()
	if err != nil {
		return metrics.Point{}, err
	}
	if c.tel != nil {
		end := c.tel.Now()
		c.tel.Observe(telemetry.HistEvalNS, end-start)
		c.tel.RecordSpan(telemetry.SpanEval, telemetry.DeriveSpanID(telemetry.SpanStep, t, -1, -1), t, -1, -1, start, end)
		tr := c.tel.Trace()
		if tr.StepActive(t) {
			tr.Emit(&telemetry.Event{Type: telemetry.EventPhase, Step: t, Phase: &telemetry.PhaseEvent{Name: "eval", NS: end - start}})
		}
		c.tel.Add(telemetry.CounterEvals, 1)
		c.tel.SetGauge(telemetry.GaugeAccuracy, acc)
		c.tel.SetGauge(telemetry.GaugeLoss, loss)
		tr.Emit(&telemetry.Event{Type: telemetry.EventEval, Step: t + 1, Eval: &telemetry.EvalEvent{Accuracy: acc, Loss: loss}})
	}
	return metrics.Point{Step: t + 1, Accuracy: acc, Loss: loss}, nil
}

// EvaluateConfusion classifies the full test set with the current global
// model and returns the confusion matrix, exposing the per-class (macro)
// view of the evaluation.
func (c *Cloud) EvaluateConfusion() (*metrics.Confusion, error) {
	idx := c.testIndices()
	preds := make([]int, len(idx))
	labels := make([]int, len(idx))
	for i := range labels {
		labels[i] = c.test.Label(i)
	}
	if _, _, err := c.evalSums(idx, preds); err != nil {
		return nil, fmt.Errorf("hfl: evaluate confusion: %w", err)
	}
	return metrics.NewConfusion(c.test.Classes, preds, labels)
}

// testIndices returns the test set's sample indices 0..n-1, built once.
func (c *Cloud) testIndices() []int {
	if len(c.evalIdx) != c.test.Len() {
		c.evalIdx = make([]int, c.test.Len())
		for i := range c.evalIdx {
			c.evalIdx[i] = i
		}
	}
	return c.evalIdx
}

// evaluate computes the global model's accuracy and loss on the test set.
func (c *Cloud) evaluate() (acc, loss float64, err error) {
	correct, lossSum, err := c.evalSums(c.testIndices(), nil)
	if err != nil {
		return 0, 0, err
	}
	total := float64(c.test.Len())
	return float64(correct) / total, lossSum * (1 / total), nil
}

// evalSums loads the global model into per-shard evaluation networks and
// scores the test samples at the given indices. The index list splits into
// evalShards contiguous shards — a fixed count independent of the core
// count — whose (correct, lossSum) pairs are reduced in shard order, so the
// result is the same on every machine and for every worker count. The shards
// run as index tasks on the run's pool, or outside a run on a pool of the
// call's own. When preds is non-nil the shards also record each sample's
// predicted class at its position in the index list.
func (c *Cloud) evalSums(indices []int, preds []int) (correct int, lossSum float64, err error) {
	shards := min(evalShards, len(indices))
	for len(c.evalShard) < shards {
		c.evalShard = append(c.evalShard, evalShardState{
			net: c.evalNet.Clone(),
			x:   tensor.New(evalChunk, c.test.InC, c.test.InH, c.test.InW),
			y:   make([]int, evalChunk),
			idx: make([]int, evalChunk),
		})
	}
	for s := 0; s < shards; s++ {
		if err := c.evalShard[s].net.SetParamVector(c.global); err != nil {
			return 0, 0, fmt.Errorf("load global model into evaluation shard %d: %w", s, err)
		}
	}
	g := c.evalGroup
	if g == nil {
		pool := parallel.NewPool(c.cfg.workers())
		defer pool.Close()
		g = pool.Group()
	}
	c.evalIn, c.evalPreds = indices, preds
	for s := 0; s < shards; s++ {
		g.GoIndex(c.evalTask, s)
	}
	g.Wait()
	for _, st := range c.evalShard[:shards] {
		correct += st.correct
		lossSum += st.lossSum
	}
	return correct, lossSum, nil
}

// scoreShard scores shard s's slice of evalSums' indices in chunks of
// evalChunk rows, carrying its sums row by row — the bits of one pass over
// the slice; a short last chunk repeats its last index in padding rows that
// are forwarded but not scored.
func (c *Cloud) scoreShard(s int) {
	indices := c.evalIn
	shards := min(evalShards, len(indices))
	start, end := len(indices)*s/shards, len(indices)*(s+1)/shards
	st := &c.evalShard[s]
	st.correct, st.lossSum = 0, 0
	for lo := start; lo < end; lo += evalChunk {
		rows := copy(st.idx, indices[lo:end])
		for i := rows; i < evalChunk; i++ {
			st.idx[i] = st.idx[rows-1]
		}
		c.test.BatchInto(st.x, st.y, st.idx)
		var p []int
		if c.evalPreds != nil {
			p = c.evalPreds[lo : lo+rows]
		}
		st.correct, st.lossSum = st.net.Score(st.x, st.y[:rows], p, st.correct, st.lossSum)
	}
}
