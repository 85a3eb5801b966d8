package hfl

import (
	"fmt"

	"github.com/mach-fl/mach/internal/mobility"
)

// This file threads the streaming mobility plane (DESIGN.md §12) through the
// engine: the engine holds a mobility.Window over its StepSource — the
// current attachment row — plus per-shard move buckets, instead of reading a
// dense schedule. A single advance per step produces the move stream every
// consumer repairs from: each shard's member index receives exactly the moves
// intersecting its edge range, and the optional online transition statistics
// fold the same stream. Dense *Schedule runs go through the same code path
// via the schedule's StepSource adapter, which is what makes streaming and
// dense runs bit-identical: both planes position the engine from one move
// stream per step.

// SetTransitionStats attaches an online transition-statistics accumulator
// fed from the engine's move stream (nil detaches). Call it before Run. The
// statistics are observational only: attaching them never changes what the
// engine computes.
func (e *Engine) SetTransitionStats(s *mobility.OnlineTransitionStats) { e.transStats = s }

// advanceMobility positions the engine's mobility window at step t, feeds
// the transition statistics, and buckets the step's moves per shard so each
// shard repairs its member index from only the moves that touch its edge
// range. Advancing to the current position is a no-op. O(moves + shards) per
// single step.
//
//machlint:allocfree
func (e *Engine) advanceMobility(t int) error {
	prev := e.win.Pos()
	if t == prev {
		return nil
	}
	moves, rebuilt, err := e.win.Advance(t)
	if err != nil {
		return err
	}
	e.stepRebuilt = rebuilt
	if e.transStats != nil {
		if !rebuilt {
			e.transStats.ObserveStep(moves)
		} else if prev >= 0 || t > 0 {
			// A reposition that skipped steps: the intermediate transitions
			// are unobservable. Initial positioning at step 0 skips nothing.
			e.transStats.ObserveJump()
		}
	}
	for s := range e.shardMoves {
		e.shardMoves[s] = e.shardMoves[s][:0]
	}
	for _, mv := range moves {
		sf, st := e.edgeShard[mv.From], e.edgeShard[mv.To]
		e.shardMoves[sf] = append(e.shardMoves[sf], mv)
		if st != sf {
			e.shardMoves[st] = append(e.shardMoves[st], mv)
		}
	}
	return nil
}

// positionMobility advances the mobility window and every shard's member
// index to step t. Inside Run both are already positioned by the step
// protocol, so this degenerates to no-ops; direct callers (tests, cloud
// aggregation outside a run) get the same state on demand, which requires a
// source supporting random access — the dense adapter does. A source error
// here means the caller stepped outside the horizon, a programming error.
func (e *Engine) positionMobility(t int) {
	if err := e.advanceMobility(t); err != nil {
		panic(fmt.Sprintf("hfl: position mobility at step %d: %v", t, err))
	}
	for _, s := range e.shards {
		s.index.AdvanceWith(t, e.win.Row(), e.shardMoves[s.id], e.stepRebuilt)
	}
}
