package sampling

import "math"

// ClassBalance is the class-balance sampling baseline (CS), modelled on
// Fed-CBS (Zhang et al., ICML 2023): the edge actively selects the group of
// ⌊K_n⌋ devices whose combined local label distribution is closest to
// uniform, greedily minimizing the class-imbalance objective
// ‖mix − uniform‖² (the QCID surrogate). The greedy selection is
// deterministic given the edge's members; round-to-round diversity comes
// from device mobility reshuffling edge membership, which reproduces the
// paper's observation that CS can trail even uniform sampling when the same
// balanced subset keeps being re-selected (Table I, MNIST).
//
// CS is an active-selection method: chosen devices participate with
// certainty, so aggregation uses a plain average over participants rather
// than inverse-probability weights (Unbiased returns false).
type ClassBalance struct{}

var _ Strategy = (*ClassBalance)(nil)

// NewClassBalance returns the class-balance sampling baseline.
func NewClassBalance() *ClassBalance { return &ClassBalance{} }

// Name implements Strategy.
func (*ClassBalance) Name() string { return "class-balance" }

// Unbiased implements Strategy.
func (*ClassBalance) Unbiased() bool { return false }

// ProbabilitiesInto implements Strategy: 1 for the greedily selected balanced
// group, 0 for everyone else.
func (*ClassBalance) ProbabilitiesInto(ctx *EdgeContext, dst []float64) []float64 {
	n := len(ctx.Members)
	out := ensureLen(dst, n)
	k := int(math.Floor(ctx.Capacity + 1e-9))
	if k < 1 {
		k = 1
	}
	if k >= n {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	clear(out)
	dists := make([][]float64, n)
	for i, m := range ctx.Members {
		if ctx.ClassDist != nil {
			dists[i] = ctx.ClassDist(m)
		}
	}
	if dists[0] == nil {
		// No label information available: degrade to choosing a random
		// group of k devices.
		for _, i := range ctx.RNG.Perm(n)[:k] {
			out[i] = 1
		}
		return out
	}
	classes := len(dists[0])
	mix := make([]float64, classes)
	chosen := make([]bool, n)
	picked := 0
	cand := make([]float64, classes)
	for picked < k {
		best, bestScore := -1, math.Inf(1)
		for i := range ctx.Members {
			if chosen[i] {
				continue
			}
			copy(cand, mix)
			for c, p := range dists[i] {
				cand[c] += p
			}
			// Normalize by the would-be group size and score imbalance.
			inv := 1.0 / float64(picked+1)
			score := 0.0
			u := 1.0 / float64(classes)
			for _, v := range cand {
				d := v*inv - u
				score += d * d
			}
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		chosen[best] = true
		for c, p := range dists[best] {
			mix[c] += p
		}
		picked++
	}
	for i := range out {
		if chosen[i] {
			out[i] = 1
		}
	}
	return out
}
