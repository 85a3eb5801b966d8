package mobility

import "fmt"

// Predictor computes P^t_{n,m} — the probability that device m is attached
// to edge n, t steps ahead — from a fitted station-level Markov chain
// (§II-A: "we can set a variable P^t_{n,m} ∈ [0,1] as the probability that
// device m is accessed to edge n at time step t", using "classical mobility
// models such as Markov mobility"). Feed it a chain fitted online
// (OnlineTransitionStats.Transitions with the identity clustering) or any
// station-level chain with a station→edge clustering.
type Predictor struct {
	transitions [][]float64 // station-level chain
	edgeOf      []int       // station → edge
	edges       int
}

// NewPredictor validates and assembles a predictor.
func NewPredictor(transitions [][]float64, edgeOf []int, edges int) (*Predictor, error) {
	n := len(transitions)
	if n == 0 {
		return nil, fmt.Errorf("mobility: predictor needs a non-empty chain")
	}
	if len(edgeOf) != n {
		return nil, fmt.Errorf("mobility: clustering covers %d stations, chain has %d", len(edgeOf), n)
	}
	if edges <= 0 {
		return nil, fmt.Errorf("mobility: predictor needs ≥ 1 edge")
	}
	for i, row := range transitions {
		if len(row) != n {
			return nil, fmt.Errorf("mobility: chain row %d has %d entries, want %d", i, len(row), n)
		}
		sum := 0.0
		for _, p := range row {
			if p < 0 {
				return nil, fmt.Errorf("mobility: negative transition probability in row %d", i)
			}
			sum += p
		}
		if sum < 1-1e-6 || sum > 1+1e-6 {
			return nil, fmt.Errorf("mobility: chain row %d sums to %v", i, sum)
		}
	}
	for s, e := range edgeOf {
		if e < 0 || e >= edges {
			return nil, fmt.Errorf("mobility: station %d clustered to invalid edge %d", s, e)
		}
	}
	return &Predictor{transitions: transitions, edgeOf: edgeOf, edges: edges}, nil
}

// StationDistribution returns the station occupancy distribution `steps`
// transitions ahead of the given current station.
func (p *Predictor) StationDistribution(station, steps int) ([]float64, error) {
	n := len(p.transitions)
	if station < 0 || station >= n {
		return nil, fmt.Errorf("mobility: station %d outside chain of %d", station, n)
	}
	if steps < 0 {
		return nil, fmt.Errorf("mobility: negative horizon %d", steps)
	}
	cur := make([]float64, n)
	cur[station] = 1
	next := make([]float64, n)
	for s := 0; s < steps; s++ {
		for j := range next {
			next[j] = 0
		}
		for i, pi := range cur {
			//machlint:allow floateq sparsity fast path; exact zero rows contribute exactly nothing
			if pi == 0 {
				continue
			}
			for j, tij := range p.transitions[i] {
				next[j] += pi * tij
			}
		}
		cur, next = next, cur
	}
	return cur, nil
}

// EdgeProbabilities returns P^t_{n,·} for one device: the probability of
// being attached to each edge, `steps` transitions ahead of its current
// station.
func (p *Predictor) EdgeProbabilities(station, steps int) ([]float64, error) {
	stationDist, err := p.StationDistribution(station, steps)
	if err != nil {
		return nil, err
	}
	out := make([]float64, p.edges)
	for s, mass := range stationDist {
		out[p.edgeOf[s]] += mass
	}
	return out, nil
}
