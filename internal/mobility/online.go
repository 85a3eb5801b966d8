package mobility

import (
	"fmt"

	"github.com/mach-fl/mach/internal/det"
)

// OnlineTransitionStats fits the edge-level Markov mobility model of §II-A
// incrementally from a StepSource's move stream, with no dense pass over the
// realized schedule. Each observed single-step move stream is folded in at
// O(moves) — a device that stays put costs nothing — and the fitted matrix is
// available at any point of the run.
// Memory is O(distinct observed transitions): a sparse hop-count map plus one
// row-total per edge, never Edges² until a dense matrix is asked for.
type OnlineTransitionStats struct {
	edges   int
	devices int

	// counts holds observed hop counts keyed (from<<32)|to; self-loops are
	// never observed because sources emit only real edge changes, so the
	// counts are departure-only.
	counts    map[uint64]int64
	rowTotals []int64

	steps int   // observed single-step transitions
	jumps int   // gaps (AdvanceTo jumps) with no pair information
	moved int64 // total moves across observed steps
}

// NewOnlineTransitionStats returns empty statistics for an edges-wide,
// devices-deep population.
func NewOnlineTransitionStats(edges, devices int) (*OnlineTransitionStats, error) {
	if edges <= 0 || devices <= 0 {
		return nil, fmt.Errorf("mobility: transition stats dims %d/%d must be positive", edges, devices)
	}
	return &OnlineTransitionStats{
		edges:     edges,
		devices:   devices,
		counts:    make(map[uint64]int64),
		rowTotals: make([]int64, edges),
	}, nil
}

// ObserveStep folds one single-step move stream into the statistics.
//
//machlint:allocfree
func (o *OnlineTransitionStats) ObserveStep(moves []Move) {
	for _, mv := range moves {
		o.counts[uint64(mv.From)<<32|uint64(mv.To)]++
		o.rowTotals[mv.From]++
	}
	o.moved += int64(len(moves))
	o.steps++
}

// ObserveJump records a positioning gap: the source was repositioned by more
// than one step, so the intermediate transitions are unobservable and must
// not be guessed. Only the gap count advances.
func (o *OnlineTransitionStats) ObserveJump() { o.jumps++ }

// Steps returns the number of observed single-step transitions.
func (o *OnlineTransitionStats) Steps() int { return o.steps }

// Jumps returns the number of unobservable positioning gaps.
func (o *OnlineTransitionStats) Jumps() int { return o.jumps }

// TransitionRate returns the fraction of device-steps at which the attached
// edge changed, over the observed steps — the streaming counterpart of
// Schedule.TransitionRate.
func (o *OnlineTransitionStats) TransitionRate() float64 {
	if o.steps == 0 {
		return 0
	}
	return float64(o.moved) / (float64(o.devices) * float64(o.steps))
}

// Transitions densifies the fitted model: row i is the empirical distribution
// of the next edge given a device is leaving edge i, with rows that observed
// no departures uniform over all edges — a row-stochastic matrix
// NewPredictor accepts.
func (o *OnlineTransitionStats) Transitions() [][]float64 {
	out := make([][]float64, o.edges)
	for i := range out {
		out[i] = make([]float64, o.edges)
	}
	// Sorted-key order for determinism; each key writes a distinct cell, but
	// the lint contract is that no map range order ever reaches float math.
	for _, k := range det.SortedKeys(o.counts) {
		from, to := int(k>>32), int(k&0xffffffff)
		out[from][to] = float64(o.counts[k]) / float64(o.rowTotals[from])
	}
	for i, total := range o.rowTotals {
		if total == 0 {
			for j := range out[i] {
				out[i][j] = 1 / float64(o.edges)
			}
		}
	}
	return out
}
