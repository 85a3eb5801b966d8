package sampling

import (
	"math"
	"math/rand"
	"testing"
)

// waterFill is the exact minimizer of VarianceTerm(sqNorms, q) over the box
// qMin ≤ q_m ≤ 1 with Σ q = capacity: the problem Eq. (18)'s single clamp
// pass approximates (DESIGN.md §3.5). The KKT conditions make every q_m
// clamp(λ·G_m, qMin, 1) with G_m = √sqNorms[m]; Σ q is nondecreasing in λ, so
// bisection finds which members sit at a bound, and λ then follows in closed
// form from the free members. Norms must be positive and
// len·qMin ≤ capacity.
func waterFill(capacity, qMin float64, sqNorms []float64) []float64 {
	n := len(sqNorms)
	q := make([]float64, n)
	if capacity >= float64(n) {
		for i := range q {
			q[i] = 1
		}
		return q
	}
	g := make([]float64, n)
	minG := math.Inf(1)
	for i, a := range sqNorms {
		g[i] = math.Sqrt(a)
		minG = math.Min(minG, g[i])
	}
	fill := func(lambda float64) float64 {
		s := 0.0
		for i := range q {
			q[i] = clampProb(lambda*g[i], qMin)
			s += q[i]
		}
		return s
	}
	lo, hi := 0.0, 1/minG // Σ q(hi) = n ≥ capacity
	for range 2000 {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if fill(mid) < capacity {
			lo = mid
		} else {
			hi = mid
		}
	}
	// The active set at hi is the optimum's; solve λ on the free members.
	fill(hi)
	rest, free := capacity, 0.0
	for i := range q {
		if q[i] <= qMin || q[i] >= 1 {
			rest -= q[i]
		} else {
			free += g[i]
		}
	}
	if free > 0 {
		lambda := rest / free
		for i := range q {
			if q[i] > qMin && q[i] < 1 {
				q[i] = lambda * g[i]
			}
		}
	}
	return q
}

// kktGap returns the interval the KKT multiplier ν of
// min Σ a_m/q_m s.t. Σ q = capacity, qMin ≤ q ≤ 1 must lie in for q to be
// optimal: a_m/q_m² = ν on a free member, a_m/qMin² ≤ ν at the floor,
// a_m ≥ ν at the ceiling. The problem is convex, so lo ≤ hi (and feasibility)
// certifies a global minimum.
func kktGap(a, q []float64, qMin float64) (lo, hi float64) {
	lo, hi = 0, math.Inf(1)
	for i, x := range q {
		r := a[i] / (x * x)
		switch {
		case x <= qMin:
			lo = math.Max(lo, r)
		case x >= 1:
			hi = math.Min(hi, r)
		default:
			lo, hi = math.Max(lo, r), math.Min(hi, r)
		}
	}
	return lo, hi
}

// waterFillInstance draws squared norms spread over twelve decades and a
// capacity anywhere in the feasible range (n·qMin, n).
func waterFillInstance(rng *rand.Rand, n int, qMin float64) (capacity float64, sqNorms []float64) {
	sqNorms = make([]float64, n)
	for i := range sqNorms {
		sqNorms[i] = math.Pow(10, 12*rng.Float64()-6)
	}
	lo := float64(n) * qMin
	return lo + (float64(n)-lo)*(0.02+0.96*rng.Float64()), sqNorms
}

func TestWaterFillIsBoxConstrainedOptimum(t *testing.T) {
	const qMin, tol = 0.02, 1e-12
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 3, 4, 5, 8, 20, 100} {
		for trial := range 50 {
			capacity, a := waterFillInstance(rng, n, qMin)
			q := waterFill(capacity, qMin, a)
			if s := sum(q); math.Abs(s-capacity) > tol*capacity {
				t.Fatalf("n=%d trial %d: Σq = %v, want %v", n, trial, s, capacity)
			}
			for i, x := range q {
				if x < qMin || x > 1 {
					t.Fatalf("n=%d trial %d: q[%d] = %v outside [%v, 1]", n, trial, i, x, qMin)
				}
			}
			if lo, hi := kktGap(a, q, qMin); lo > hi*(1+1e-9) {
				t.Fatalf("n=%d trial %d: KKT multiplier interval [%v, %v] is empty", n, trial, lo, hi)
			}
		}
	}
}

// TestWaterFillBeatsEveryGridPoint searches the feasible set of small edges
// exhaustively: no point of a grid over q_1..q_{n−1} (q_n = K − Σ) may have a
// smaller variance term than the water-filling solution.
func TestWaterFillBeatsEveryGridPoint(t *testing.T) {
	const qMin, steps = 0.02, 120
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{2, 3, 4} {
		for trial := range 4 {
			capacity, a := waterFillInstance(rng, n, qMin)
			best := VarianceTerm(a, waterFill(capacity, qMin, a))
			q := make([]float64, n)
			var walk func(i int, used float64)
			walk = func(i int, used float64) {
				if i == n-1 {
					q[i] = capacity - used
					if q[i] < qMin || q[i] > 1 {
						return
					}
					if v := VarianceTerm(a, q); v < best*(1-1e-12) {
						t.Fatalf("n=%d trial %d: grid point %v has variance term %v below the water-filling %v", n, trial, q, v, best)
					}
					return
				}
				for k := 0; k <= steps; k++ {
					q[i] = qMin + (1-qMin)*float64(k)/steps
					walk(i+1, used+q[i])
				}
			}
			walk(0, 0)
		}
	}
}
