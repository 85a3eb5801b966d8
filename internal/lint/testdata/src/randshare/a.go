// Package randshare exercises the randshare analyzer: constant seeds and
// *rand.Rand streams shared across goroutine boundaries.
package randshare

import (
	"math/rand"
	"sync"

	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/parallel"
)

// mix stands in for the repo's seed-derivation helper.
func mix(parts ...int64) int64 {
	h := int64(1469598103934665603)
	for _, p := range parts {
		h ^= p
		h *= 1099511628211
	}
	return h
}

func constSeed() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want "seeded with constant 42"
}

func constReseed(r *rand.Rand) {
	r.Seed(7) // want "seeded with constant 7"
}

func derivedSeedClean(seed int64, t int) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, int64(t))))
}

func additiveSeed(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(id)*311)) // want "seeded with seed arithmetic"
}

func scaledReseed(r *rand.Rand, seed int64) {
	r.Seed(int64((seed * 1009))) // want "seeded with seed arithmetic"
}

func keyedStreamOnMathRand(seed int64, t, m int) *rand.Rand {
	return rand.New(rand.NewSource(det.DeviceBatch(seed, t, m))) // want "NewSource over det.DeviceBatch builds a math/rand register per keyed stream; use det.NewRand"
}

func keyedStreamConverted(seed int64, t, n int) rand.Source {
	return rand.NewSource(int64((det.EdgeCoin(seed, t, n)))) // want "use det.NewRand"
}

// keyedStreamClean is the remediation; reseeding a det.NewRand in place from
// the table is how the engine pools its per-edge stream.
func keyedStreamClean(seed int64, t, n int) *rand.Rand {
	r := det.NewRand(det.EdgeCoin(seed, t, n))
	r.Seed(det.EdgeCoin(seed, t+1, n))
	return r
}

// modelInitClean: the one stream of the table that stays on math/rand.
func modelInitClean(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(det.ModelInit(seed)))
}

func plainSeedClean(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)))
}

func sharedByTwoGoroutines(seed int64) {
	r := rand.New(rand.NewSource(mix(seed)))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = r.Int63() }()
	go func() { defer wg.Done(); _ = r.Int63() }() // want "more than one goroutine-spawning closure"
	wg.Wait()
}

func parentUseAfterSpawn(seed int64) int64 {
	r := rand.New(rand.NewSource(mix(seed)))
	done := make(chan struct{})
	go func() { _ = r.Int63(); close(done) }() // want "parent scope after the spawn"
	v := r.Int63()
	<-done
	return v
}

func spawnInLoop(seed int64, n int) {
	r := rand.New(rand.NewSource(mix(seed)))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); _ = r.Int63() }() // want "multiple goroutines"
	}
	wg.Wait()
}

func goIndexCapture(seed int64, n int) {
	r := rand.New(rand.NewSource(mix(seed)))
	p := parallel.NewPool(2)
	defer p.Close()
	g := p.Group()
	for i := 0; i < n; i++ {
		g.GoIndex(func(int) {
			_ = r.Int63() // want "multiple goroutines"
		}, i)
	}
	g.Wait()
}

// handOffClean seeds on the parent goroutine, then hands the stream off
// completely: every parent use is lexically before the spawn.
func handOffClean(seed int64) {
	r := rand.New(rand.NewSource(mix(seed)))
	r.Seed(mix(seed, 1))
	done := make(chan struct{})
	go func() { _ = r.Int63(); close(done) }()
	<-done
}

// perWorkerClean gives each pool task its own derived stream.
func perWorkerClean(seed int64) {
	p := parallel.NewPool(2)
	defer p.Close()
	g := p.Group()
	r0 := rand.New(rand.NewSource(mix(seed, 0)))
	r1 := rand.New(rand.NewSource(mix(seed, 1)))
	g.Go(func() { _ = r0.Int63() })
	g.Go(func() { _ = r1.Int63() })
	g.Wait()
}

func suppressed() *rand.Rand {
	//machlint:allow randshare fixture pins that a justified waiver silences the finding
	return rand.New(rand.NewSource(99))
}
