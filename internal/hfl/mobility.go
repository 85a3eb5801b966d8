package hfl

import "github.com/mach-fl/mach/internal/mobility"

// This file threads the streaming mobility plane (DESIGN.md §12) through the
// engine: the engine holds a mobility.Window over its StepSource — the
// current attachment row — instead of reading a dense schedule. A single
// advance per step produces the move stream every consumer repairs from: the
// engine's member index, with the two calls fed.Cloud makes, and the optional
// online transition statistics. Dense *Schedule runs go through the same code
// path via the schedule's StepSource adapter, which is what makes streaming
// and dense runs bit-identical: both planes position the engine from one move
// stream per step.

// SetTransitionStats attaches an online transition-statistics accumulator
// fed from the engine's move stream (nil detaches). Call it before Run. The
// statistics are observational only: attaching them never changes what the
// engine computes.
func (e *Engine) SetTransitionStats(s *mobility.OnlineTransitionStats) { e.transStats = s }

// advanceMobility positions the engine's mobility window at step t, repairs
// the member index from the step's moves and feeds the transition
// statistics. Advancing to the current position is a no-op.
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
	e.memberIndex.AdvanceWith(t, e.win.Row(), moves, rebuilt)
	if e.transStats != nil {
		if !rebuilt {
			e.transStats.ObserveStep(moves)
		} else if prev >= 0 || t > 0 {
			// A reposition that skipped steps: the intermediate transitions
			// are unobservable. Initial positioning at step 0 skips nothing.
			e.transStats.ObserveJump()
		}
	}
	return nil
}
