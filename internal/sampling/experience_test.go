package sampling

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestExperienceBookWindowFolding(t *testing.T) {
	b := NewExperienceBook(2, 1, 1)
	// Window 1: norms {4, 6} → avg 5.
	observeBook(b, 0, []float64{4, 6})
	b.CloudRound(5)
	if got := b.LastAverage(0, -1); got != 5 {
		t.Fatalf("window average %v, want 5", got)
	}
	// Window 2: smaller average; exploitation term keeps the max (5).
	observeBook(b, 0, []float64{1})
	b.CloudRound(10)
	if got := b.LastAverage(0, -1); got != 1 {
		t.Fatalf("last average %v, want 1", got)
	}
	// UCB = maxAvg + √(log t / steps) with maxAvg = 5, steps = 2.
	want := 5 + math.Sqrt(math.Log(12)/2)
	if got := ucbEstimate(b, 0, 10); math.Abs(got-want) > 1e-12 {
		t.Fatalf("UCB %v, want %v", got, want)
	}
	// Device 1 never participated: fallback applies.
	if got := b.LastAverage(1, 7); got != 7 {
		t.Fatalf("fallback %v, want 7", got)
	}
}

func TestExperienceBookDiscountDecaysMax(t *testing.T) {
	lit := NewExperienceBook(1, 0, 1)
	disc := NewExperienceBook(1, 0, 0.5)
	for _, b := range []*ExperienceBook{lit, disc} {
		observeBook(b, 0, []float64{8})
		b.CloudRound(1)
	}
	// Three empty cloud rounds: literal max stays, discounted halves.
	for r := 2; r <= 4; r++ {
		lit.CloudRound(r)
		disc.CloudRound(r)
	}
	if got := ucbEstimate(lit, 0, 10); math.Abs(got-8) > 1e-12 {
		t.Fatalf("literal max drifted: %v", got)
	}
	if got := ucbEstimate(disc, 0, 10); math.Abs(got-1) > 1e-12 { // 8·0.5³
		t.Fatalf("discounted max %v, want 1", got)
	}
}

func TestExperienceBookInvalidDiscountDefaultsToOne(t *testing.T) {
	b := NewExperienceBook(1, 0, -3)
	observeBook(b, 0, []float64{4})
	b.CloudRound(1)
	b.CloudRound(2)
	if got := ucbEstimate(b, 0, 5); math.Abs(got-4) > 1e-12 {
		t.Fatalf("invalid discount not defaulted: %v", got)
	}
}

func TestExperienceBookEmptyObservationIgnored(t *testing.T) {
	b := NewExperienceBook(1, 1, 1)
	observeBook(b, 0, nil)
	if got := b.Participations(0); got != 0 {
		t.Fatalf("empty observation counted: %d", got)
	}
}

func TestExperienceBookConcurrentObserve(t *testing.T) {
	b := NewExperienceBook(50, 1, 0.9)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				observeBook(b, (g*200+i)%50, []float64{1, 2})
			}
		}(g)
	}
	wg.Wait()
	b.CloudRound(1)
	total := 0
	for m := 0; m < 50; m++ {
		total += b.Participations(m)
	}
	if total != 8*200 {
		t.Fatalf("lost observations under concurrency: %d", total)
	}
}

// Property: the UCB estimate is always at least the exploitation term and
// strictly decreases in the participation count for a fixed history.
func TestUCBMonotoneInParticipationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		few := NewExperienceBook(1, 1, 1)
		many := NewExperienceBook(1, 1, 1)
		norm := []float64{rng.Float64()*5 + 0.1}
		observeBook(few, 0, norm)
		for i := 0; i < 10; i++ {
			observeBook(many, 0, norm)
		}
		few.CloudRound(1)
		many.CloudRound(1)
		t1 := 20
		return ucbEstimate(few, 0, t1) > ucbEstimate(many, 0, t1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: EdgeSampling output always respects capacity and bounds for any
// non-negative estimates.
func TestEdgeSamplingProperty(t *testing.T) {
	cfg := DefaultMACHConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		est := make([]float64, n)
		for i := range est {
			est[i] = rng.Float64() * 50
		}
		capacity := 0.5 + rng.Float64()*float64(n)
		q := EdgeSamplingInto(cfg, capacity, est, nil)
		total := 0.0
		for _, v := range q {
			if v < 0 || v > 1 {
				return false
			}
			total += v
		}
		if capacity >= float64(n) {
			return total == float64(n) // everyone selected
		}
		return total <= capacity+cfg.QMin*float64(n)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
