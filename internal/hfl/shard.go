package hfl

import (
	"fmt"

	"github.com/mach-fl/mach/internal/telemetry"
)

// This file holds the sharded control plane (DESIGN.md §11): the engine's
// per-step work is partitioned into shards, each a contiguous range of edges
// with its aggregation scratch and phase timings. Run fans a step out over
// the shards with parallel.ForEach — one goroutine per shard, or inline with
// one shard — and every shard runs decide → execute → finalize for its edges.
// Everything a step produces for an edge lands in that edge's plan, so a
// step's cross-shard interleaving can never reach a value: every RNG stream
// is per-edge and placement-independent, the member index and experience book
// are only read during the step, and the collect point reads errors,
// observations and counts from the plans in edge order on the Run goroutine
// after ForEach returns.

// shardState is one control-plane shard: a contiguous edge range [lo, hi),
// its aggregation scratch, and its phase telemetry. All fields are owned by
// the shard's goroutine during a step and readable by the engine after
// ForEach returns, which orders the two.
type shardState struct {
	e      *Engine
	id     int
	lo, hi int // owned edge range [lo, hi)

	// aggResults is the shard's upload-collection scratch, reused across its
	// edges.
	aggResults []localResult

	// Phase telemetry, observed by the engine at the collect point.
	decideNS, trainNS, finalNS int64
	queueDepth                 int

	panicked any
	hasPanic bool
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

// step runs the shard's share of one time step: decide every owned edge in
// edge order, execute the sampled devices' local updates on the shared pool,
// and aggregate in edge order. Everything written here is either owned by the
// shard (its edges, their decide states and plans, its scratch) or private to
// a device the schedule assigns to exactly one of its edges this step, so
// shards never contend; the member index and the experience book are only
// read during the step, never written.
func (s *shardState) step(t int) {
	e := s.e
	start := e.tel.Now()
	s.queueDepth = 0
	failed := false
	for n := s.lo; n < s.hi; n++ {
		e.plans[n].err = e.edgeDecide(t, n)
		failed = failed || e.plans[n].err != nil
	}
	decideEnd := e.tel.Now()
	s.decideNS = decideEnd - start
	// Phase spans reuse the timestamps already taken for the phase
	// histograms — no extra clock reads — and nest under this shard's step
	// span (edge dimension = shard id, as in runStep).
	cmdSpan := telemetry.DeriveSpanID(telemetry.SpanShardCmd, t, s.id, 0)
	e.tel.RecordSpan(telemetry.SpanDecide, cmdSpan, t, s.id, -1, start, decideEnd)
	if failed {
		return // the engine aborts the run; a failed plan is not executable
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
	for n := s.lo; n < s.hi && e.plans[n].trainErr() == nil; n++ {
		e.edgeFinalize(n, s)
	}
	finalEnd := e.tel.Now()
	s.finalNS = finalEnd - trainEnd
	e.tel.RecordSpan(telemetry.SpanFinalize, cmdSpan, t, s.id, -1, trainEnd, finalEnd)
}

// collectStep is the engine side of a step's collect point. It re-raises the
// first shard panic in shard order, reports the step's first error from the
// plans — every edge's decide error before any training error, the lowest
// edge of each kind — and hands the strategy's observer the step's training
// experience as one batch in edge then member order. It runs serially on the
// Run goroutine after ForEach returns, so everything it does is
// deterministic.
func (e *Engine) collectStep(t int) error {
	for _, s := range e.shards {
		if s.hasPanic {
			panic(s.panicked)
		}
	}
	for n := range e.plans {
		if err := e.plans[n].err; err != nil {
			return fmt.Errorf("hfl: step %d edge %d: %w", t, n, err)
		}
	}
	for n := range e.plans {
		if err := e.plans[n].trainErr(); err != nil {
			return fmt.Errorf("hfl: step %d edge %d: %w", t, n, err)
		}
	}
	if e.observer != nil {
		epochs := e.cfg.LocalEpochs
		e.obsEdges, e.obsDevs, e.obsNorms = e.obsEdges[:0], e.obsDevs[:0], e.obsNorms[:0]
		for n := range e.plans {
			plan := &e.plans[n]
			for i, pd := range plan.devs {
				e.obsEdges = append(e.obsEdges, n)
				e.obsDevs = append(e.obsDevs, pd.m)
				e.obsNorms = append(e.obsNorms, plan.norms[i*epochs:(i+1)*epochs])
				e.pulls[pd.m]++
			}
		}
		if len(e.obsDevs) > 0 {
			e.observer.ObserveBatch(t, e.obsEdges, e.obsDevs, e.obsNorms)
		}
	}
	if e.tel != nil {
		e.collectShardTelemetry(t)
	}
	return nil
}

// collectShardTelemetry publishes the shards' phase durations and queue
// depths: into the engine-level phase histograms (one observation per shard
// per step), the per-shard telemetry slots, and — when the trace records this
// step — phase events in (phase, shard) order.
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
