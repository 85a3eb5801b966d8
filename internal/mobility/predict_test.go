package mobility

import (
	"math"
	"math/rand"
	"testing"
)

// twoStationChain: station 0 sticky, station 1 flighty.
func twoStationChain() [][]float64 {
	return [][]float64{{0.9, 0.1}, {0.4, 0.6}}
}

func TestNewPredictorValidation(t *testing.T) {
	ok := twoStationChain()
	if _, err := NewPredictor(ok, []int{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		trans  [][]float64
		edgeOf []int
		edges  int
	}{
		{"empty chain", nil, nil, 1},
		{"clustering mismatch", ok, []int{0}, 2},
		{"zero edges", ok, []int{0, 1}, 0},
		{"ragged row", [][]float64{{1}, {0.5, 0.5}}, []int{0, 1}, 2},
		{"row not stochastic", [][]float64{{0.5, 0.4}, {0.5, 0.5}}, []int{0, 1}, 2},
		{"negative prob", [][]float64{{1.5, -0.5}, {0.5, 0.5}}, []int{0, 1}, 2},
		{"bad edge id", ok, []int{0, 5}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewPredictor(tt.trans, tt.edgeOf, tt.edges); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestStationDistributionSteps(t *testing.T) {
	p, err := NewPredictor(twoStationChain(), []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 0 steps: point mass on the current station.
	d0, err := p.StationDistribution(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d0[0] != 1 || d0[1] != 0 {
		t.Fatalf("0-step distribution %v", d0)
	}
	// 1 step: exactly the transition row.
	d1, err := p.StationDistribution(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d1[0]-0.9) > 1e-12 || math.Abs(d1[1]-0.1) > 1e-12 {
		t.Fatalf("1-step distribution %v", d1)
	}
	// Long horizon: converges to the stationary distribution (0.8, 0.2).
	dInf, err := p.StationDistribution(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dInf[0]-0.8) > 1e-9 || math.Abs(dInf[1]-0.2) > 1e-9 {
		t.Fatalf("long-horizon distribution %v, want (0.8, 0.2)", dInf)
	}
	// Errors.
	if _, err := p.StationDistribution(5, 1); err == nil {
		t.Fatal("expected station range error")
	}
	if _, err := p.StationDistribution(0, -1); err == nil {
		t.Fatal("expected horizon error")
	}
}

func TestEdgeProbabilitiesAggregateStations(t *testing.T) {
	// Both stations cluster to edge 0 → edge probability is always 1.
	p, err := NewPredictor(twoStationChain(), []int{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := p.EdgeProbabilities(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(probs[0]-1) > 1e-12 {
		t.Fatalf("edge probability %v, want 1", probs[0])
	}
}

// TestEdgeProbabilitiesSumToOne: on a random chain clustered onto fewer
// edges, every station's edge law sums to one at every horizon, so summing it
// over a device population gives E[|M^t_n|] totalling the population size.
func TestEdgeProbabilitiesSumToOne(t *testing.T) {
	const stations, edges = 6, 3
	rng := rand.New(rand.NewSource(9))
	chain := make([][]float64, stations)
	for i := range chain {
		chain[i] = make([]float64, stations)
		total := 0.0
		for j := range chain[i] {
			chain[i][j] = rng.Float64()
			total += chain[i][j]
		}
		for j := range chain[i] {
			chain[i][j] /= total
		}
	}
	p, err := NewPredictor(chain, []int{0, 0, 1, 1, 2, 2}, edges)
	if err != nil {
		t.Fatal(err)
	}
	current := []int{0, 0, 1, 3, 4, 5, 5, 5}
	for _, horizon := range []int{0, 1, 4, 30} {
		members := make([]float64, edges)
		for _, st := range current {
			probs, err := p.EdgeProbabilities(st, horizon)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for n, q := range probs {
				if q < 0 {
					t.Fatalf("horizon %d station %d edge %d probability %v", horizon, st, n, q)
				}
				sum += q
				members[n] += q
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("horizon %d station %d edge law sums to %v", horizon, st, sum)
			}
		}
		if total := members[0] + members[1] + members[2]; math.Abs(total-float64(len(current))) > 1e-9 {
			t.Fatalf("horizon %d expected members sum %v, want %d", horizon, total, len(current))
		}
	}
}

// TestEdgeProbabilitiesErrors: the station and horizon checks of
// StationDistribution reach EdgeProbabilities' callers.
func TestEdgeProbabilitiesErrors(t *testing.T) {
	p, err := NewPredictor(twoStationChain(), []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EdgeProbabilities(2, 1); err == nil {
		t.Fatal("expected station range error")
	}
	if _, err := p.EdgeProbabilities(-1, 1); err == nil {
		t.Fatal("expected negative station error")
	}
	if _, err := p.EdgeProbabilities(0, -1); err == nil {
		t.Fatal("expected horizon error")
	}
}

// TestPredictorUniformChain: the all-uniform chain (what a fit that saw no
// departures yields) keeps the predictor exactly uniform at every horizon
// instead of degenerating or erroring.
func TestPredictorUniformChain(t *testing.T) {
	p, err := NewPredictor([][]float64{{0.5, 0.5}, {0.5, 0.5}}, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, horizon := range []int{1, 5, 50} {
		probs, err := p.EdgeProbabilities(0, horizon)
		if err != nil {
			t.Fatal(err)
		}
		for n, q := range probs {
			if math.Abs(q-0.5) > 1e-12 {
				t.Fatalf("horizon %d edge %d probability %v, want 0.5", horizon, n, q)
			}
		}
	}
}

// End-to-end: fit the edge-level chain online from a generated schedule's
// move stream and check the predictor's long-horizon edge occupancy roughly
// matches the realized schedule's.
func TestPredictorMatchesRealizedOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stations, err := PlaceStations(rng, 8, PlacementConfig{Width: 100, Height: 100})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := GenerateMarkovTrace(rng, stations, 40, 600, MarkovConfig{StayProb: 0.85, Neighbors: 3})
	if err != nil {
		t.Fatal(err)
	}
	edgeOf, err := ClusterStations(rng, stations, 3)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := BuildSchedule(trace, edgeOf, 3, 40, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := NewOnlineTransitionStats(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sched.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	for step := 1; step < 600; step++ {
		moves, rebuilt, err := sched.AdvanceTo(step)
		if err != nil || rebuilt {
			t.Fatalf("AdvanceTo(%d): rebuilt %v err %v", step, rebuilt, err)
		}
		stats.ObserveStep(moves)
	}
	p, err := NewPredictor(stats.Transitions(), []int{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Hop-chain stationary edge mass vs realized occupancy share: both are
	// distributions over edges; they should agree coarsely (the hop chain
	// ignores dwell times, so only the support and rough shape match).
	occ := sched.EdgeOccupancy()
	occTotal := 0.0
	for _, o := range occ {
		occTotal += o
	}
	probs, err := p.EdgeProbabilities(0, 300)
	if err != nil {
		t.Fatal(err)
	}
	for n := range probs {
		if probs[n] < 0 || probs[n] > 1 {
			t.Fatalf("edge probability %v outside [0,1]", probs[n])
		}
		if occ[n]/occTotal > 0.15 && probs[n] < 0.01 {
			t.Fatalf("edge %d carries %.0f%% of occupancy but predictor gives %.3f",
				n, 100*occ[n]/occTotal, probs[n])
		}
	}
}
