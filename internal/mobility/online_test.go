package mobility

import (
	"math"
	"testing"
)

// TestOnlineStatsMatchDenseHopCounts: feeding a source's move stream into
// OnlineTransitionStats yields exactly the hop-count matrix and transition
// rate a dense pass over the materialized twin computes.
func TestOnlineStatsMatchDenseHopCounts(t *testing.T) {
	const edges, devices, steps = 5, 60, 30
	mk := func() *MarkovSource {
		src, err := NewMarkovSource(13, edges, devices, steps, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	twin, err := Materialize(mk())
	if err != nil {
		t.Fatal(err)
	}

	stats, err := NewOnlineTransitionStats(edges, devices)
	if err != nil {
		t.Fatal(err)
	}
	src := mk()
	for step := 1; step < steps; step++ {
		moves, rebuilt, err := src.AdvanceTo(step)
		if err != nil || rebuilt {
			t.Fatalf("AdvanceTo(%d): rebuilt %v err %v", step, rebuilt, err)
		}
		stats.ObserveStep(moves)
	}

	// Dense reference: off-diagonal adjacent-row transitions, row-normalized,
	// uniform where a row saw no departures.
	counts := make([][]float64, edges)
	totals := make([]float64, edges)
	for i := range counts {
		counts[i] = make([]float64, edges)
	}
	for step := 1; step < steps; step++ {
		for m := 0; m < devices; m++ {
			from, to := twin.EdgeOf(step-1, m), twin.EdgeOf(step, m)
			if from != to {
				counts[from][to]++
				totals[from]++
			}
		}
	}
	want := make([][]float64, edges)
	for i := range want {
		want[i] = make([]float64, edges)
		for j := range want[i] {
			if totals[i] == 0 {
				want[i][j] = 1 / float64(edges)
			} else {
				want[i][j] = counts[i][j] / totals[i]
			}
		}
	}

	got := stats.Transitions()
	for i := range want {
		rowSum := 0.0
		for j := range want[i] {
			if math.Abs(got[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("transition [%d][%d] = %v, dense %v", i, j, got[i][j], want[i][j])
			}
			rowSum += got[i][j]
		}
		if math.Abs(rowSum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, rowSum)
		}
	}

	if got, want := stats.TransitionRate(), twin.TransitionRate(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("transition rate %v, dense %v", got, want)
	}
	if stats.Steps() != steps-1 {
		t.Fatalf("observed %d steps, want %d", stats.Steps(), steps-1)
	}
	// The fitted matrix must satisfy NewPredictor, closing the loop to the
	// prediction path.
	edgeOf := make([]int, edges)
	for i := range edgeOf {
		edgeOf[i] = i
	}
	if _, err := NewPredictor(got, edgeOf, edges); err != nil {
		t.Fatalf("fitted matrix rejected by predictor: %v", err)
	}
}

// TestOnlineStatsJumpsAndEmpty: jumps advance only the gap counter, an
// observation-free statistic reports rate 0 and all-uniform rows, and the
// constructor rejects bad dimensions.
func TestOnlineStatsJumpsAndEmpty(t *testing.T) {
	stats, err := NewOnlineTransitionStats(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TransitionRate() != 0 {
		t.Fatalf("empty stats rate %v", stats.TransitionRate())
	}
	for i, row := range stats.Transitions() {
		for j, p := range row {
			if math.Abs(p-1.0/3) > 1e-15 {
				t.Fatalf("empty stats transition [%d][%d] = %v", i, j, p)
			}
		}
	}
	stats.ObserveJump()
	stats.ObserveJump()
	if stats.Jumps() != 2 || stats.Steps() != 0 {
		t.Fatalf("jumps %d steps %d, want 2/0", stats.Jumps(), stats.Steps())
	}

	if _, err := NewOnlineTransitionStats(0, 5); err == nil {
		t.Fatal("expected edges error")
	}
	if _, err := NewOnlineTransitionStats(3, 0); err == nil {
		t.Fatal("expected devices error")
	}
}
