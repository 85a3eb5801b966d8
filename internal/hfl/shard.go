package hfl

import (
	"fmt"

	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/telemetry"
)

// This file holds the sharded control plane (DESIGN.md §11): the engine's
// per-step work is partitioned into shards, each owning a contiguous range of
// edges plus that range's member index, decide/aggregation scratch and
// experience-observation buffer. Run fans a step out over the shards with
// parallel.ForEach — one goroutine per shard, or inline with one shard — and
// every shard runs decide → execute → finalize for its edges. A step's
// cross-shard interleaving can never reach a value: every RNG stream is
// per-edge and placement-independent, the experience book is frozen for the
// step (observations are buffered per shard and merged in edge order at the
// collect point), and every reduction folds in edge order on the Run
// goroutine after ForEach returns.

// shardState is one control-plane shard: a contiguous edge range [lo, hi),
// its range-scoped member index, and every per-step buffer the monolithic
// engine kept in one place. All fields are owned by the shard's goroutine
// during a step and readable by the engine after ForEach returns, which
// orders the two.
type shardState struct {
	e      *Engine
	id     int
	lo, hi int // owned edge range [lo, hi)

	index *mobility.MemberIndex

	// Step outputs, read by the engine at the collect point.
	counts []edgeStepCounts // per owned edge, indexed n-lo

	// First decide and finalize errors, by edge order within the shard. The
	// engine checks all shards' decide errors before any finalize error,
	// mirroring the monolithic engine's decide-then-finalize error
	// precedence; shard ranges are ordered, so scanning shards in order
	// yields the lowest-edge error of each kind.
	decideErrEdge int
	decideErr     error
	finalErrEdge  int
	finalErr      error
	panicked      any
	hasPanic      bool

	// Observation buffer: the step's (edge, device, norms) records in edge
	// then member order, merged into the strategy's observer at the collect
	// point. The norms slices are the edge plans' slot windows — valid until
	// each edge's next decide, which is after the merge.
	obsEdges []int
	obsDevs  []int
	obsNorms [][]float64

	// aggResults is the shard's upload-collection scratch, reused across its
	// edges exactly as the monolithic engine reused one slice across the
	// serial finalize loop.
	aggResults []localResult

	// Phase telemetry, observed by the engine at the collect point.
	decideNS, trainNS, finalNS int64
	queueDepth                 int
}

// newShardState builds shard id of S, covering edges [E·id/S, E·(id+1)/S).
func newShardState(e *Engine, id, shards int) *shardState {
	lo, hi := e.nEdges*id/shards, e.nEdges*(id+1)/shards
	return &shardState{
		e:      e,
		id:     id,
		lo:     lo,
		hi:     hi,
		index:  mobility.NewMemberIndexWindow(lo, hi),
		counts: make([]edgeStepCounts, hi-lo),
	}
}

// runStep is the shard's step as ForEach calls it: a panic is stored rather
// than left to kill the process from a ForEach goroutine, so every shard
// finishes and collectStep re-raises the first one in shard order. The span
// reuses the edge dimension for the shard id and nests under the step span.
func (s *shardState) runStep(t int) {
	defer func() {
		if r := recover(); r != nil && !s.hasPanic {
			s.hasPanic, s.panicked = true, r
		}
	}()
	sp := s.e.tel.StartSpan(telemetry.SpanShardCmd, telemetry.DeriveSpanID(telemetry.SpanStep, t, -1, -1), t, s.id, 0)
	defer sp.End()
	s.step(t)
}

// step runs the shard's share of one time step: position the range index,
// decide every owned edge in edge order, execute the sampled devices' local
// updates on the shared pool, and finalize (observe + aggregate) in edge
// order. Everything written here is either owned by the shard (its edges,
// their decide states and plans, its index and buffers) or private to a
// device the schedule assigns to exactly one of its edges this step, so
// shards never contend; the experience book is only read (estimates) during
// the step, never written.
func (s *shardState) step(t int) {
	e := s.e
	start := e.tel.Now()
	s.decideErr, s.finalErr = nil, nil
	s.obsEdges = s.obsEdges[:0]
	s.obsDevs = s.obsDevs[:0]
	s.obsNorms = s.obsNorms[:0]
	s.queueDepth = 0
	// Repair the range index from the engine's move stream: only the moves
	// bucketed for this shard (those touching [lo, hi)) are replayed, so the
	// per-shard positioning cost is O(own moves), not a row-vs-row diff. The
	// row, bucket and rebuilt flag were written before ForEach started the
	// step and are read-only until it returns.
	s.index.AdvanceWith(t, e.win.Row(), e.shardMoves[s.id], e.stepRebuilt)
	for n := s.lo; n < s.hi; n++ {
		if err := e.edgeDecide(t, n); err != nil && s.decideErr == nil {
			s.decideErrEdge, s.decideErr = n, err
		}
	}
	decideEnd := e.tel.Now()
	s.decideNS = decideEnd - start
	// Phase spans reuse the timestamps already taken for the phase
	// histograms — no extra clock reads — and nest under this shard's step
	// span (edge dimension = shard id, as in runStep).
	cmdSpan := telemetry.DeriveSpanID(telemetry.SpanShardCmd, t, s.id, 0)
	e.tel.RecordSpan(telemetry.SpanDecide, cmdSpan, t, s.id, -1, start, decideEnd)
	if s.decideErr != nil {
		return // the engine aborts the run; skip execution like the monolith
	}
	// Config.FuseBatch is task granularity only: one trainGroup per plan or per device.
	g := e.pool.Group()
	for n := s.lo; n < s.hi; n++ {
		count := len(e.plans[n].devs)
		size := 1
		if e.cfg.FuseBatch {
			size = count
		}
		for lo := 0; lo < count; lo += size {
			n, hi := n, lo+size // never reassigned, so the task captures them by value
			g.Go(func() {
				tr := e.trainers.Borrow(e.cfg.BatchSize)
				defer e.trainers.Release(tr)
				e.trainGroup(n, lo, hi, tr)
			})
		}
	}
	s.queueDepth = e.pool.QueueDepth()
	g.Wait()
	trainEnd := e.tel.Now()
	s.trainNS = trainEnd - decideEnd
	e.tel.RecordSpan(telemetry.SpanTrain, cmdSpan, t, s.id, -1, decideEnd, trainEnd)
	for n := s.lo; n < s.hi; n++ {
		counts, err := e.edgeFinalize(t, n, s)
		s.counts[n-s.lo] = counts
		if err != nil {
			s.finalErrEdge, s.finalErr = n, err
			break
		}
	}
	finalEnd := e.tel.Now()
	s.finalNS = finalEnd - trainEnd
	e.tel.RecordSpan(telemetry.SpanFinalize, cmdSpan, t, s.id, -1, trainEnd, finalEnd)
}

// surfaceShardPanics re-raises the first stored shard panic (in shard
// order) on the Run goroutine, preserving the monolithic engine's
// panic-on-producer behavior across the fan-out.
func (e *Engine) surfaceShardPanics() {
	for _, s := range e.shards {
		if s.hasPanic {
			panic(s.panicked)
		}
	}
}

// stepEdgeError wraps a shard-reported per-edge failure exactly as the
// monolithic step loop did.
func stepEdgeError(t, n int, err error) error {
	return fmt.Errorf("hfl: step %d edge %d: %w", t, n, err)
}

// edgeMembers returns M^t_n from the owning shard's range index.
//
//machlint:allocfree
func (e *Engine) edgeMembers(n int) []int {
	s := e.shards[e.edgeShard[n]]
	return s.index.Members(n)
}

// collectStep is the engine side of a step's collect point: it surfaces
// shard panics and errors (decide before finalize, each in edge order),
// merges the shards' buffered observations into the strategy's observer in
// edge order, and publishes the shards' phase telemetry. It runs serially on
// the Run goroutine after ForEach returns, so everything it does is
// deterministic.
func (e *Engine) collectStep(t int) error {
	e.surfaceShardPanics()
	for _, s := range e.shards {
		if s.decideErr != nil {
			return stepEdgeError(t, s.decideErrEdge, s.decideErr)
		}
	}
	for _, s := range e.shards {
		if s.finalErr != nil {
			return stepEdgeError(t, s.finalErrEdge, s.finalErr)
		}
	}
	for _, s := range e.shards {
		// Nothing is buffered for a strategy that does not observe.
		if len(s.obsDevs) == 0 {
			continue
		}
		e.observer.ObserveBatch(t, s.obsEdges, s.obsDevs, s.obsNorms)
		for _, m := range s.obsDevs {
			e.pulls[m]++
		}
	}
	if e.tel != nil {
		e.collectShardTelemetry(t)
	}
	return nil
}

// collectShardTelemetry publishes the shards' phase durations and queue
// depths: into the engine-level phase histograms (one observation per shard
// per step — with one shard, exactly the monolithic engine's cadence), the
// per-shard telemetry slots, and — when the trace records this step — phase
// events in (phase, shard) order.
func (e *Engine) collectShardTelemetry(t int) {
	maxDepth := 0
	for _, s := range e.shards {
		e.tel.Observe(telemetry.HistDecideNS, s.decideNS)
		e.tel.Observe(telemetry.HistTrainNS, s.trainNS)
		e.tel.Observe(telemetry.HistAggregateNS, s.finalNS)
		e.tel.ObserveShardPhase(s.id, telemetry.ShardPhaseDecide, s.decideNS)
		e.tel.ObserveShardPhase(s.id, telemetry.ShardPhaseTrain, s.trainNS)
		e.tel.ObserveShardPhase(s.id, telemetry.ShardPhaseFinalize, s.finalNS)
		e.tel.SetShardQueueDepth(s.id, int64(s.queueDepth))
		if s.queueDepth > maxDepth {
			maxDepth = s.queueDepth
		}
	}
	e.tel.SetGauge(telemetry.GaugeQueueDepth, float64(maxDepth))
	tr := e.tel.Trace()
	if !tr.StepActive(t) {
		return
	}
	for _, name := range []struct {
		label string
		ns    func(*shardState) int64
	}{
		{"decide", func(s *shardState) int64 { return s.decideNS }},
		{"train", func(s *shardState) int64 { return s.trainNS }},
		{"finalize", func(s *shardState) int64 { return s.finalNS }},
	} {
		for _, s := range e.shards {
			tr.Emit(&telemetry.Event{Type: telemetry.EventPhase, Step: t, Phase: &telemetry.PhaseEvent{
				Name: name.label, NS: name.ns(s), Shard: s.id,
			}})
		}
	}
}
