package sampling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func ctxWith(members []int, capacity float64, seed int64) *EdgeContext {
	return &EdgeContext{
		Step:     10,
		Edge:     0,
		Capacity: capacity,
		Members:  members,
		RNG:      rand.New(rand.NewSource(seed)),
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestUniformProbabilities(t *testing.T) {
	u := NewUniform()
	tests := []struct {
		name     string
		members  int
		capacity float64
		want     float64
	}{
		{"half", 10, 5, 0.5},
		{"all fit", 3, 5, 1},
		{"exactly fit", 4, 4, 1},
		{"tight", 8, 2, 0.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			members := make([]int, tt.members)
			for i := range members {
				members[i] = i
			}
			q := probabilities(u, ctxWith(members, tt.capacity, 1))
			for i, v := range q {
				if math.Abs(v-tt.want) > 1e-12 {
					t.Fatalf("q[%d] = %v, want %v", i, v, tt.want)
				}
			}
		})
	}
	if !u.Unbiased() {
		t.Fatal("uniform must be unbiased")
	}
}

func TestOptimalProbabilitiesClosedForm(t *testing.T) {
	// True minimizer of Σ G²/q: q* = K·G/ΣG, so squared norms {1, 9}
	// (norms 1 and 3) split a budget of 2 as 0.5 / 1.5.
	q := OptimalProbabilities(2, []float64{1, 9})
	if math.Abs(q[0]-0.5) > 1e-12 || math.Abs(q[1]-1.5) > 1e-12 {
		t.Fatalf("q = %v", q)
	}
	// All-zero norms degrade to uniform.
	q = OptimalProbabilities(2, []float64{0, 0, 0, 0})
	for _, v := range q {
		if math.Abs(v-0.5) > 1e-12 {
			t.Fatalf("zero-norm fallback: %v", q)
		}
	}
}

func TestPaperVirtualProbabilitiesEq13(t *testing.T) {
	// Eq. (13)/(16) literally: q̂ = K·G²/ΣG².
	q := PaperVirtualProbabilities(2, []float64{1, 3})
	if math.Abs(q[0]-0.5) > 1e-12 || math.Abs(q[1]-1.5) > 1e-12 {
		t.Fatalf("q̂ = %v", q)
	}
	q = PaperVirtualProbabilities(1, []float64{0, 0})
	if math.Abs(q[0]-0.5) > 1e-12 {
		t.Fatalf("zero-norm fallback: %v", q)
	}
}

// The exact minimizer must never produce a larger variance term than the
// paper's Eq. (13) plug-in — quantifying the (small) suboptimality of the
// published closed form.
func TestOptimalNoWorseThanPaperForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		norms := make([]float64, n)
		for i := range norms {
			norms[i] = 0.1 + rng.Float64()*9
		}
		capacity := 1 + rng.Float64()*float64(n-1)
		exact := VarianceTerm(norms, OptimalProbabilities(capacity, norms))
		paper := VarianceTerm(norms, PaperVirtualProbabilities(capacity, norms))
		return exact <= paper+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property (Remark 2): among probability vectors with the same budget, the
// closed-form optimum minimizes the variance term Σ G²/q of the convergence
// bound. We verify against random perturbations with the same sum.
func TestOptimalMinimizesVarianceTerm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		norms := make([]float64, n)
		for i := range norms {
			norms[i] = 0.1 + rng.Float64()*5
		}
		capacity := 1 + rng.Float64()*float64(n-1)
		opt := OptimalProbabilities(capacity, norms)
		optVal := VarianceTerm(norms, opt)
		for trial := 0; trial < 10; trial++ {
			alt := make([]float64, n)
			for i := range alt {
				alt[i] = 0.01 + rng.Float64()
			}
			s := sum(alt)
			for i := range alt {
				alt[i] *= capacity / s
			}
			if VarianceTerm(norms, alt) < optVal-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceTermInfiniteOnZeroProb(t *testing.T) {
	if !math.IsInf(VarianceTerm([]float64{1}, []float64{0}), 1) {
		t.Fatal("zero probability must give infinite variance term")
	}
}

func TestCapProbabilitiesRespectsCapacityAndFloor(t *testing.T) {
	scores := []float64{10, 1, 1, 1e-9}
	q := capProbabilitiesInto(nil, scores, 2, 0.05)
	if got := sum(q); got > 2+0.25 { // floor may lift the sum slightly
		t.Fatalf("Σq = %v exceeds capacity budget", got)
	}
	for i, v := range q {
		if v < 0.05 || v > 1 {
			t.Fatalf("q[%d] = %v outside [floor, 1]", i, v)
		}
	}
	if q[0] <= q[1] {
		t.Fatal("higher score must receive higher probability")
	}
}

func TestMACHConfigValidate(t *testing.T) {
	valid := DefaultMACHConfig()
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*MACHConfig)
	}{
		{"alpha zero", func(c *MACHConfig) { c.Alpha = 0 }},
		{"alpha two", func(c *MACHConfig) { c.Alpha = 2 }},
		{"beta positive", func(c *MACHConfig) { c.Beta = 1 }},
		{"beta zero", func(c *MACHConfig) { c.Beta = 0 }},
		{"negative exploration", func(c *MACHConfig) { c.ExplorationCoef = -1 }},
		{"qmin one", func(c *MACHConfig) { c.QMin = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := valid
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestTransferFunctionShape(t *testing.T) {
	cfg := DefaultMACHConfig()
	// S(0) = 1 exactly.
	if got := cfg.Transfer(0); math.Abs(got-1) > 1e-12 {
		t.Fatalf("S(0) = %v, want 1", got)
	}
	// Monotone increasing and bounded in (1−α/2, 1+α/2).
	prev := math.Inf(-1)
	for q := 0.0; q <= 5; q += 0.1 {
		s := cfg.Transfer(q)
		if s <= prev {
			t.Fatalf("S not increasing at q̂=%v", q)
		}
		if s <= 1-cfg.Alpha/2 || s >= 1+cfg.Alpha/2 {
			t.Fatalf("S(%v) = %v outside bounds", q, s)
		}
		prev = s
	}
}

func TestMACHStartsNearUniform(t *testing.T) {
	s, err := NewMACH(10, DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	members := []int{0, 1, 2, 3, 4, 5}
	q := probabilities(s, ctxWith(members, 3, 2))
	// With no experiences every estimate is the same exploration score, so
	// probabilities are equal.
	for i := 1; i < len(q); i++ {
		if math.Abs(q[i]-q[0]) > 1e-12 {
			t.Fatalf("initial probabilities not uniform: %v", q)
		}
	}
	if math.Abs(sum(q)-3) > 1e-9 {
		t.Fatalf("Σq = %v, want 3", sum(q))
	}
}

func TestMACHFavorsHighNormDevices(t *testing.T) {
	s, err := NewMACH(4, DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Device 0 reports large gradients; device 1 small; 2 and 3 medium.
	for step := 0; step < 5; step++ {
		observe(s, step, 0, 0, []float64{9, 10, 11})
		observe(s, step, 0, 1, []float64{0.1, 0.2})
		observe(s, step, 0, 2, []float64{2})
		observe(s, step, 0, 3, []float64{2})
	}
	s.CloudRound(5)
	q := probabilities(s, ctxWith([]int{0, 1, 2, 3}, 2, 3))
	if !(q[0] > q[2] && q[2] > q[1]) {
		t.Fatalf("ordering violated: %v", q)
	}
	if math.Abs(q[2]-q[3]) > 1e-12 {
		t.Fatalf("equal-norm devices got different probabilities: %v", q)
	}
	if s.Book().Participations(0) != 5 {
		t.Fatalf("participations = %d, want 5", s.Book().Participations(0))
	}
}

func TestMACHExplorationBonusForUnseenDevices(t *testing.T) {
	s, err := NewMACH(3, MACHConfig{Alpha: 1.5, Beta: -3, ExplorationCoef: 1, QMin: 0.01, Discount: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Devices 0 and 1 participated often with small norms; device 2 never.
	for step := 0; step < 20; step++ {
		observe(s, step, 0, 0, []float64{0.2})
		observe(s, step, 0, 1, []float64{0.2})
	}
	s.CloudRound(20)
	book := s.Book()
	unseen := ucbEstimate(book, 2, 100)
	seen := ucbEstimate(book, 0, 100)
	if unseen <= seen {
		t.Fatalf("unseen device must carry the larger UCB score: %v vs %v", unseen, seen)
	}
	q := probabilities(s, ctxWith([]int{0, 1, 2}, 1.5, 4))
	if q[2] <= q[0] {
		t.Fatalf("unseen device must be sampled more: %v", q)
	}
}

func TestMACHBufferClearedAtCloudRound(t *testing.T) {
	s, err := NewMACH(1, DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	observe(s, 0, 0, 0, []float64{8})
	s.CloudRound(1)
	first := ucbEstimate(s.Book(), 0, 10)
	// A later, smaller window must not lower the max-based estimate
	// (Eq. 15 takes the max over windows)...
	observe(s, 2, 0, 0, []float64{1})
	s.CloudRound(3)
	second := ucbEstimate(s.Book(), 0, 10)
	if second > first {
		t.Fatalf("estimate grew after smaller window with more steps: %v → %v", first, second)
	}
	// ...while the exploitation term A stays at the historical max.
	if la := s.Book().LastAverage(0, -1); la != 1 {
		t.Fatalf("last average = %v, want 1", la)
	}
}

func TestStatisticalTracksLastWindow(t *testing.T) {
	s, err := NewStatistical(2, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Unbiased() {
		t.Fatal("statistical must be unbiased")
	}
	// Before any experience: uniform via prior.
	q := probabilities(s, ctxWith([]int{0, 1}, 1, 5))
	if math.Abs(q[0]-q[1]) > 1e-12 {
		t.Fatalf("prior probabilities not uniform: %v", q)
	}
	observe(s, 0, 0, 0, []float64{4})
	observe(s, 0, 0, 1, []float64{1})
	s.CloudRound(1)
	q = probabilities(s, ctxWith([]int{0, 1}, 1, 5))
	if q[0] <= q[1] {
		t.Fatalf("statistical must favor the larger last window: %v", q)
	}
	// Unlike MACH, a later smaller window *replaces* the estimate.
	observe(s, 2, 0, 0, []float64{0.1})
	s.CloudRound(3)
	q2 := probabilities(s, ctxWith([]int{0, 1}, 1, 5))
	if q2[0] >= q2[1] {
		t.Fatalf("statistical must track the last window, not the max: %v", q2)
	}
}

func TestNewStatisticalRejectsBadQMin(t *testing.T) {
	if _, err := NewStatistical(1, -0.1); err == nil {
		t.Fatal("expected error")
	}
	if _, err := NewStatistical(1, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestMACHPUsesProbedNorms(t *testing.T) {
	s, err := NewMACHP(DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	probes := 0
	ctx := ctxWith([]int{0, 1, 2}, 1.5, 6)
	ctx.ProbeGradNorm = func(m int) float64 {
		probes++
		return float64(m*m + 1) // device 2 ≫ device 0
	}
	q := probabilities(s, ctx)
	if !(q[2] > q[1] && q[1] > q[0]) {
		t.Fatalf("MACH-P ordering violated: %v", q)
	}
	if probes != 3 {
		t.Fatalf("probed %d times, want 3", probes)
	}
	// Same step again: cache must prevent re-probing.
	_ = probabilities(s, ctx)
	if probes != 3 {
		t.Fatalf("cache miss: probed %d times", probes)
	}
	// New step: cache invalidated.
	ctx.Step++
	_ = probabilities(s, ctx)
	if probes != 6 {
		t.Fatalf("stale cache: probed %d times, want 6", probes)
	}
}

func TestMACHPWithoutProbeDegradesToUniform(t *testing.T) {
	s, err := NewMACHP(DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := probabilities(s, ctxWith([]int{0, 1}, 1, 7))
	if math.Abs(q[0]-q[1]) > 1e-12 {
		t.Fatalf("expected uniform fallback: %v", q)
	}
}

// Property: for every strategy and random context, probabilities stay in
// [0,1], and for unbiased strategies they are strictly positive.
func TestStrategyProbabilityRangeProperty(t *testing.T) {
	mach, err := NewMACH(32, DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewStatistical(32, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	machp, err := NewMACHP(DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	strategies := []Strategy{NewUniform(), mach, ss, machp, NewClassBalance()}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		members := rng.Perm(32)[:n]
		capacity := 0.5 + rng.Float64()*float64(n)
		ctx := &EdgeContext{
			Step:     rng.Intn(100),
			Capacity: capacity,
			Members:  members,
			RNG:      rng,
			ClassDist: func(m int) []float64 {
				d := make([]float64, 5)
				d[m%5] = 1
				return d
			},
			ProbeGradNorm: func(m int) float64 { return float64(m) + 1 },
		}
		for _, s := range strategies {
			q := probabilities(s, ctx)
			if len(q) != n {
				return false
			}
			total := 0.0
			for _, v := range q {
				if v < 0 || v > 1 {
					return false
				}
				if s.Unbiased() && v == 0 {
					return false
				}
				total += v
			}
			// Capacity respected up to the qMin floor allowance; the
			// class-balance baseline always selects at least one device,
			// so its budget floor is 1.
			budget := capacity
			if budget < 1 {
				budget = 1
			}
			if float64(n) > capacity && total > budget+0.02*float64(n)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
