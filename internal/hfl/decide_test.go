package hfl

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/sampling"
)

// TestReseededRNGMatchesFreshSource pins the pooled-RNG contract edgeDecide
// relies on: reseeding one rand.Rand with Seed(s) yields exactly the stream
// rand.New(rand.NewSource(s)) would, for the engine's actual per-edge seeds.
// If this ever broke, every sampling coin would shift and runs would diverge
// from the seed engine.
func TestReseededRNGMatchesFreshSource(t *testing.T) {
	reused := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ seed, t, n int64 }{
		{1, 0, 0}, {1, 0, 4}, {1, 57, 2}, {42, 13, 0}, {-9, 99, 999},
	} {
		s := det.EdgeCoin(tc.seed, int(tc.t), int(tc.n))
		fresh := rand.New(rand.NewSource(s))
		reused.Seed(s)
		for i := 0; i < 200; i++ {
			f, r := fresh.Float64(), reused.Float64()
			if math.Float64bits(f) != math.Float64bits(r) {
				t.Fatalf("seed %d draw %d: fresh %v, reseeded %v", s, i, f, r)
			}
		}
		// Int draws share the source stream; check them too.
		if f, r := fresh.Intn(1<<20), reused.Intn(1<<20); f != r {
			t.Fatalf("seed %d: fresh Intn %d, reseeded Intn %d", s, f, r)
		}
	}
}

// TestRunRegressionFixedSeed locks the full pipeline to a golden trace: the
// exact sampled-per-step sequence and final accuracy of a small MACH run.
// The membership index, pooled decide state, in-place sampling path and
// parallel decide must all reproduce the seed engine's draws exactly for
// this to hold.
func TestRunRegressionFixedSeed(t *testing.T) {
	machStrategy := func(t *testing.T) sampling.Strategy {
		s, err := sampling.NewMACH(12, sampling.DefaultMACHConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	res, _ := runWithWorkers(t, machStrategy, 3)
	// Golden values captured from the pre-index serial engine (commit
	// 040083d) on this exact config; they must never drift.
	wantSampled := []int{7, 4, 6, 5, 6, 6, 9, 3, 4, 6, 6, 5}
	if len(res.SampledPerStep) != len(wantSampled) {
		t.Fatalf("ran %d steps, want %d", len(res.SampledPerStep), len(wantSampled))
	}
	for i, want := range wantSampled {
		if res.SampledPerStep[i] != want {
			t.Fatalf("step %d sampled %d devices, want %d (full trace %v)", i, res.SampledPerStep[i], want, res.SampledPerStep)
		}
	}
}
