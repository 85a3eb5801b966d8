package sampling

import (
	"math"
	"math/rand"
	"testing"
)

// Test-side spellings of the one-element forms the package no longer exports:
// the contract is batch/in-place, tests mostly reason about one device.

func probabilities(s Strategy, ctx *EdgeContext) []float64 {
	return s.ProbabilitiesInto(ctx, nil)
}

func observe(o Observer, t, edge, m int, sqNorms []float64) {
	o.ObserveBatch(t, []int{edge}, []int{m}, [][]float64{sqNorms})
}

func observeBook(b *ExperienceBook, m int, sqNorms []float64) {
	b.ObserveMany([]int{m}, [][]float64{sqNorms})
}

func ucbEstimate(b *ExperienceBook, m, t int) float64 {
	var dst [1]float64
	b.UCBEstimatesInto(dst[:], []int{m}, t)
	return dst[0]
}

// groupImbalance reports the class imbalance of the group a probability
// vector selects in expectation: the squared distance to uniform of the
// q-weighted mixture of member distributions.
func groupImbalance(probs []float64, dists [][]float64) float64 {
	total := 0.0
	for _, q := range probs {
		total += q
	}
	mix := make([]float64, len(dists[0]))
	for i, d := range dists {
		for c, p := range d {
			mix[c] += probs[i] / total * p
		}
	}
	s := 0.0
	for _, v := range mix {
		d := v - 1/float64(len(mix))
		s += d * d
	}
	return s
}

// decide calls ProbabilitiesInto the way every caller must: the context's
// outputs zeroed first.
func decide(s Strategy, ctx *EdgeContext, dst []float64) []float64 {
	ctx.Estimates, ctx.Floor = nil, 0
	return s.ProbabilitiesInto(ctx, dst)
}

// third is the smallest possible Strategy — the three methods and nothing
// else — as an out-of-tree implementer would write it.
type third struct{}

func (third) Name() string   { return "third" }
func (third) Unbiased() bool { return true }
func (third) ProbabilitiesInto(ctx *EdgeContext, dst []float64) []float64 {
	dst = append(dst[:0], make([]float64, len(ctx.Members))...)
	for i := range dst {
		dst[i] = 1.0 / 3
	}
	return dst
}

// TestStrategyContract pins what a caller may rely on for every built-in
// strategy and for a bare three-method one, all driven through one shared
// context in turn: the result does not depend on what dst held or how large it
// was (Float64bits), a sufficient dst is filled in place, q ∈ [0, 1] and q > 0
// for unbiased strategies, Estimates is empty or member-aligned, the outputs a
// previous strategy left on the context never leak into the next one's, and
// the warm decide of the estimator-free and book-backed strategies allocates
// nothing.
func TestStrategyContract(t *testing.T) {
	const devices = 40
	cfg := DefaultMACHConfig()
	mach, err := NewMACH(devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stat, err := NewStatistical(devices, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	machp, err := NewMACHP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oort, err := NewOort(devices, DefaultOortConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for m := 0; m < devices; m += 2 { // half the devices have history
		norms := []float64{rng.Float64() * 3, rng.Float64() * 3}
		for _, o := range []Observer{mach, stat, oort} {
			observe(o, 1, m%3, m, norms)
		}
	}
	mach.CloudRound(2)
	stat.CloudRound(2)

	dist := func(m int) []float64 {
		d := make([]float64, 4)
		d[m%4] = 1
		return d
	}
	ctx := &EdgeContext{
		Capacity:      3,
		ClassDist:     dist,
		ProbeGradNorm: func(m int) float64 { return float64(m%7) + 0.5 },
		RNG:           rand.New(rand.NewSource(1)),
	}
	for _, tc := range []struct {
		s         Strategy
		estimates bool
		floor     float64
		allocFree bool
	}{
		{mach, true, cfg.QMin, true},
		{third{}, false, 0, false},
		{machp, true, cfg.QMin, false},
		{NewUniform(), false, 0, true},
		{stat, true, 0.03, true},
		{NewClassBalance(), false, 0, false},
		{oort, false, 0, false},
	} {
		s := tc.s
		t.Run(s.Name(), func(t *testing.T) {
			for step := 0; step < 4; step++ {
				for _, members := range [][]int{nil, {4}, {0, 1, 2}, {1, 3, 5, 7, 9, 11, 13, 15}} {
					ctx.Step, ctx.Edge, ctx.Members = step, step%3, members
					ctx.RNG.Seed(int64(step))
					want := append([]float64(nil), decide(s, ctx, nil)...)

					dirty := make([]float64, len(members)+5)
					for i := range dirty {
						dirty[i] = math.NaN()
					}
					ctx.RNG.Seed(int64(step))
					got := decide(s, ctx, dirty)
					if len(got) != len(members) || len(want) != len(members) {
						t.Fatalf("step %d members %v: %d/%d probabilities", step, members, len(got), len(want))
					}
					if len(got) > 0 && &got[0] != &dirty[0] {
						t.Fatalf("step %d members %v: a sufficient dst was not filled in place", step, members)
					}
					for i, q := range got {
						if math.Float64bits(q) != math.Float64bits(want[i]) {
							t.Fatalf("step %d members %v index %d: dirty dst %v, nil dst %v", step, members, i, q, want[i])
						}
						if !(q >= 0 && q <= 1) || (s.Unbiased() && q <= 0) {
							t.Fatalf("step %d members %v index %d: q = %v (unbiased %v)", step, members, i, q, s.Unbiased())
						}
					}
					wantEst := 0
					if tc.estimates {
						wantEst = len(members)
					}
					if len(ctx.Estimates) != wantEst || ctx.Floor != tc.floor {
						t.Fatalf("step %d members %v: %d estimates, floor %v; want %d, %v",
							step, members, len(ctx.Estimates), ctx.Floor, wantEst, tc.floor)
					}
				}
			}
			if !tc.allocFree {
				return
			}
			dst := decide(s, ctx, nil) // warm scratch + dst
			if allocs := testing.AllocsPerRun(100, func() { dst = decide(s, ctx, dst) }); allocs != 0 {
				t.Fatalf("warm decide allocates %v objects per edge", allocs)
			}
		})
	}
}

// TestProbabilitiesIntoSteadyStateAllocs verifies the point of the fast
// path: with a warm context and buffer, the MACH decide math allocates
// nothing per edge.
func TestProbabilitiesIntoSteadyStateAllocs(t *testing.T) {
	mach, err := NewMACH(64, DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	members := make([]int, 64)
	for i := range members {
		members[i] = i
	}
	ctx := &EdgeContext{Capacity: 5, Members: members}
	dst := make([]float64, 0, len(members))
	dst = mach.ProbabilitiesInto(ctx, dst) // warm scratch + dst
	allocs := testing.AllocsPerRun(100, func() {
		dst = mach.ProbabilitiesInto(ctx, dst)
	})
	if allocs != 0 {
		t.Fatalf("warm ProbabilitiesInto allocates %v objects per edge", allocs)
	}
}

// TestEdgeSamplingIntoAliasing checks the documented dst==estimates aliasing
// contract of EdgeSamplingInto and capProbabilitiesInto.
func TestEdgeSamplingIntoAliasing(t *testing.T) {
	cfg := DefaultMACHConfig()
	estimates := []float64{0.2, 1.7, 0.0, 3.1, 0.4}
	want := EdgeSamplingInto(cfg, 2, estimates, nil)
	buf := append([]float64(nil), estimates...)
	got := EdgeSamplingInto(cfg, 2, buf, buf)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("index %d: aliased %v, want %v", i, got[i], want[i])
		}
	}
}

// TestUCBEstimatesIntoMatchesEq15 pins the batched estimate path against
// Eq. (15) evaluated by hand: max window average plus the scaled confidence
// radius, √(log t) alone for a device never pulled.
func TestUCBEstimatesIntoMatchesEq15(t *testing.T) {
	b := NewExperienceBook(10, 1.3, 0.9)
	b.ObserveMany([]int{2, 7}, [][]float64{{4, 6}, {1}})
	b.CloudRound(3)
	maxAvg := map[int]float64{2: 5, 7: 1}
	members := []int{0, 2, 5, 7, 9}
	dst := make([]float64, len(members))
	for _, step := range []int{0, 3, 17} {
		b.UCBEstimatesInto(dst, members, step)
		for i, m := range members {
			want := maxAvg[m] + 1.3*math.Sqrt(math.Log(float64(step)+2))
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("step %d device %d: batched %v, Eq. 15 %v", step, m, dst[i], want)
			}
		}
	}
}

func benchEstimates(n int) []float64 {
	rng := rand.New(rand.NewSource(9))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 4
	}
	return out
}

func BenchmarkEdgeSamplingInto(b *testing.B) {
	cfg := DefaultMACHConfig()
	estimates := benchEstimates(100)
	dst := make([]float64, len(estimates))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = EdgeSamplingInto(cfg, 10, estimates, dst)
	}
}

func BenchmarkUCBEstimatesInto(b *testing.B) {
	book := NewExperienceBook(100, 1, 0.9)
	for m := 0; m < 100; m++ {
		observeBook(book, m, []float64{float64(m)})
	}
	book.CloudRound(1)
	members := make([]int, 100)
	for i := range members {
		members[i] = i
	}
	dst := make([]float64, len(members))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		book.UCBEstimatesInto(dst, members, i)
	}
}
