// Package sampling implements the device-sampling strategies of the
// evaluation: the paper's MACH algorithm (upper-confidence-bound experience
// updating, Algorithm 2, plus smoothed edge sampling, Algorithm 3), its
// perfect-information variant MACH-P, and the three baselines — uniform
// sampling (US), class-balance sampling (CS, Fed-CBS style) and statistical
// sampling (SS, gradient-norm proportional).
//
// A Strategy computes, independently for every edge and time step, the
// sampling probability q^t_{m,n} of each device currently attached to the
// edge, subject to the expected channel capacity E[Σ_m 1^t_{m,n}] ≤ K_n
// (Eq. 3). That is the whole contract: ProbabilitiesInto fills a caller-owned
// buffer and reports what telemetry wants to know about the decision (the
// per-member estimates behind it, the probability floor) as plain outputs on
// the EdgeContext. Strategies that learn from training experiences
// additionally implement Observer and receive, in one batch per step, the
// squared norms of every local stochastic gradient computed by the devices
// they sampled.
package sampling

import (
	"math"
	"math/rand"
)

// EdgeContext carries everything a strategy may use when customizing the
// sampling strategy of one edge at one time step.
type EdgeContext struct {
	// Step is the current time step t.
	Step int
	// Edge is the edge index n.
	Edge int
	// Capacity is K_n, the expected number of devices the edge channel
	// supports per step (Eq. 3).
	Capacity float64
	// Members is M^t_n, the devices currently attached to the edge.
	Members []int
	// ClassDist returns the label distribution of a device's local data;
	// class-balance sampling uses it. May be nil for strategies that do
	// not need it.
	ClassDist func(m int) []float64
	// ProbeGradNorm measures the true squared stochastic-gradient norm
	// ‖g_m(w^t, ξ)‖² of device m under the current edge model. It is
	// expensive (a full forward/backward pass) and only oracle strategies
	// use it. Nil when the engine does not support probing.
	ProbeGradNorm func(m int) float64
	// RNG is the edge's deterministic randomness source for this step.
	RNG *rand.Rand
	// Scratch is an optional caller-owned float buffer strategies may use
	// for intermediate per-member values (estimates, scores). Strategies
	// that grow it store the grown slice back here, so a pooled context
	// amortizes the allocation across steps. Contexts must not be shared
	// across concurrently-deciding edges.
	Scratch []float64

	// Estimates and Floor are outputs of ProbabilitiesInto, observed by
	// telemetry only. The caller zeroes both before every call; a strategy
	// that has them sets them. Estimates holds the per-member values the
	// probabilities were computed from (UCB estimates, probed norms,
	// last-window averages), aligned with Members, and may alias Scratch; it
	// stays empty for strategies without an estimator. Floor is the
	// probability floor the strategy clamps to, 0 when it has none. Both are
	// valid until the context's next use.
	Estimates []float64
	Floor     float64
}

// Strategy computes per-edge device sampling probabilities.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Unbiased reports whether edge aggregation should use the
	// inverse-probability weights of Eq. (5) (true) or a plain average
	// over the sampled devices (false, used by the actively-selecting
	// class-balance baseline).
	Unbiased() bool
	// ProbabilitiesInto writes q^t_{m,n} for each member, aligned with
	// ctx.Members, into dst — growing it only when its capacity is
	// insufficient, whatever it held before — and returns it. Probabilities
	// are in [0, 1] and the vector respects Σ q ≤ K_n whenever
	// len(Members) ≥ K_n. Strategies for which Unbiased returns true keep
	// every probability strictly positive, since the aggregation weights of
	// Eq. (5) are 1/q.
	ProbabilitiesInto(ctx *EdgeContext, dst []float64) []float64
}

// ensureLen returns dst resized to n, reallocating only when cap(dst) < n,
// and then append-style, so a rising n reallocates O(log n) times.
// Contents are unspecified; callers overwrite every element.
func ensureLen(dst []float64, n int) []float64 {
	if cap(dst) < n {
		dst = append(dst[:cap(dst)], make([]float64, n-cap(dst))...)
	}
	return dst[:n]
}

// Observer is implemented by strategies that learn from training
// experiences (MACH's experience updating, and statistical sampling's
// last-observation estimates). The edge at which each experience was produced
// is reported so strategies can choose where knowledge lives: MACH keeps the
// buffer on the *device* (experiences travel with it across edges — the
// paper's answer to whether experiences can be shared across edges), while
// the naive statistical baseline keeps them on the *edge* and therefore
// forgets devices that move.
type Observer interface {
	// ObserveBatch records a run of time step t's experiences: norms[i]
	// holds the squared norms of the I local stochastic gradients device
	// devices[i] computed while attached to edges[i] (Algorithm 2, line 1).
	// The engine gathers the step's observations from its edges' plans at
	// the step's collect point and delivers them in one call, in edge then
	// member order, so the sequence a strategy sees is the same for every
	// shard and worker count, and one call costs one lock however many
	// devices trained. An observer must not depend on how records are split
	// across calls.
	ObserveBatch(t int, edges, devices []int, norms [][]float64)
	// CloudRound runs at every edge-to-cloud communication step
	// (t mod T_g == 0): estimates are refreshed and experience buffers
	// cleared (Algorithm 2, lines 2-4).
	CloudRound(t int)
}

// capProbabilitiesInto scales raw non-negative scores to sampling
// probabilities with Σ q ≤ capacity and q ∈ [floor, 1], written into a
// caller-owned buffer. Scores must not be all zero; a uniform fallback is
// used if they are. dst may alias scores: the total is accumulated before any
// write, and out[i] depends only on scores[i] and the total.
//
//machlint:aliasok the score total is accumulated before any write and dst[i] depends only on scores[i]
//machlint:allocfree
func capProbabilitiesInto(dst, scores []float64, capacity, floor float64) []float64 {
	n := len(scores)
	dst = ensureLen(dst, n)
	if n == 0 {
		return dst
	}
	if capacity >= float64(n) {
		for i := range dst {
			dst[i] = 1
		}
		return dst
	}
	total := 0.0
	for _, s := range scores {
		total += s
	}
	if total <= 0 {
		q := capacity / float64(n)
		for i := range dst {
			dst[i] = clampProb(q, floor)
		}
		return dst
	}
	for i, s := range scores {
		dst[i] = clampProb(capacity*s/total, floor)
	}
	return dst
}

func clampProb(q, floor float64) float64 {
	if q < floor {
		q = floor
	}
	if q > 1 {
		q = 1
	}
	return q
}

// OptimalProbabilities is the closed-form minimizer of the convergence
// bound's Σ_m G²_m/q_m term under Σ q_m ≤ K_n, ignoring the [0,1] box
// constraints: the Lagrange condition −G²_m/q² + λ = 0 gives
// q*_m = K_n·G_m / Σ G_{m'} (proportional to the norm, not its square).
//
// Note the paper's Eq. (13) states q* ∝ G²_m; that expression does not
// minimize Σ G²/q (substitute both and compare), so we expose the true
// minimizer here for analysis while the MACH strategy itself implements the
// paper's Eq. (16) literally — see PaperVirtualProbabilities and DESIGN.md.
func OptimalProbabilities(capacity float64, sqNorms []float64) []float64 {
	out := make([]float64, len(sqNorms))
	total := 0.0
	for _, g := range sqNorms {
		total += math.Sqrt(g)
	}
	if total <= 0 {
		for i := range out {
			out[i] = capacity / float64(len(sqNorms))
		}
		return out
	}
	for i, g := range sqNorms {
		out[i] = capacity * math.Sqrt(g) / total
	}
	return out
}

// PaperVirtualProbabilities is the paper's Eq. (13)/(16) literally:
// q̂_m = K_n·G²_m / Σ G²_{m'}. MACH's edge sampling feeds this through the
// transfer function of Eq. (17); the ablation benches compare it against the
// exact minimizer OptimalProbabilities.
func PaperVirtualProbabilities(capacity float64, sqNorms []float64) []float64 {
	out := make([]float64, len(sqNorms))
	total := 0.0
	for _, g := range sqNorms {
		total += g
	}
	if total <= 0 {
		for i := range out {
			out[i] = capacity / float64(len(sqNorms))
		}
		return out
	}
	for i, g := range sqNorms {
		out[i] = capacity * g / total
	}
	return out
}

// VarianceTerm evaluates Σ_m G²_m/q_m, the sampling-dependent term of the
// convergence bound (Theorem 1) for one edge. It is the objective the
// optimal strategy of Eq. (13) minimizes; analysis code and tests use it to
// compare strategies.
func VarianceTerm(sqNorms, probs []float64) float64 {
	s := 0.0
	for i, g := range sqNorms {
		if probs[i] <= 0 {
			return math.Inf(1)
		}
		s += g / probs[i]
	}
	return s
}

// Uniform is the uniform-sampling baseline (US): every device in the edge is
// sampled with the same probability K_n/|M^t_n| [Li et al., ICLR 2020].
type Uniform struct{}

var _ Strategy = (*Uniform)(nil)

// NewUniform returns the uniform sampling baseline.
func NewUniform() *Uniform { return &Uniform{} }

// Name implements Strategy.
func (*Uniform) Name() string { return "uniform" }

// Unbiased implements Strategy.
func (*Uniform) Unbiased() bool { return true }

// ProbabilitiesInto implements Strategy.
func (*Uniform) ProbabilitiesInto(ctx *EdgeContext, dst []float64) []float64 {
	dst = ensureLen(dst, len(ctx.Members))
	for i := range dst {
		dst[i] = 1
	}
	return capProbabilitiesInto(dst, dst, ctx.Capacity, 0)
}
