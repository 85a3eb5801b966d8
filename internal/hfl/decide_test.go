package hfl

import (
	"math"
	"testing"

	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/sampling"
)

// TestReseededRNGMatchesFreshSource pins the pooled-RNG contract edgeDecide
// relies on: reseeding one det.NewRand with Seed(s) yields exactly the stream
// a fresh det.NewRand(s) would, for the engine's actual per-edge seeds.
// If this ever broke, every sampling coin would shift and runs would diverge
// from the seed engine.
func TestReseededRNGMatchesFreshSource(t *testing.T) {
	reused := det.NewRand(1)
	for _, tc := range []struct{ seed, t, n int64 }{
		{1, 0, 0}, {1, 0, 4}, {1, 57, 2}, {42, 13, 0}, {-9, 99, 999},
	} {
		s := det.EdgeCoin(tc.seed, int(tc.t), int(tc.n))
		fresh := det.NewRand(s)
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
	// Golden values for this exact config; they must never drift. Re-pinned
	// once, when the keyed streams moved from math/rand to det.Stream: the
	// values they replaced, held since the pre-index serial engine (commit
	// 040083d), are in DESIGN.md §5's re-pin record.
	wantSampled := []int{3, 7, 6, 4, 4, 4, 5, 5, 5, 8, 3, 6}
	if len(res.SampledPerStep) != len(wantSampled) {
		t.Fatalf("ran %d steps, want %d", len(res.SampledPerStep), len(wantSampled))
	}
	for i, want := range wantSampled {
		if res.SampledPerStep[i] != want {
			t.Fatalf("step %d sampled %d devices, want %d (full trace %v)", i, res.SampledPerStep[i], want, res.SampledPerStep)
		}
	}
}
