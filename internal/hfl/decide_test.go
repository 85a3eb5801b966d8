package hfl

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"

	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/mobility"
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

// faultyStrategy samples every member (q = 1) except at its planted faults:
// one probability too few at the (step, edge) pairs in short, and q = NaN for
// the first member at those in nan.
type faultyStrategy struct {
	short, nan map[[2]int]bool
}

func (*faultyStrategy) Name() string   { return "faulty" }
func (*faultyStrategy) Unbiased() bool { return true }

func (s *faultyStrategy) ProbabilitiesInto(ctx *sampling.EdgeContext, dst []float64) []float64 {
	dst = dst[:0]
	for range ctx.Members {
		dst = append(dst, 1)
	}
	at := [2]int{ctx.Step, ctx.Edge}
	if s.nan[at] {
		dst[0] = math.NaN()
	}
	if s.short[at] {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// faultyWorld is the five-edge world and the first step at which every edge
// has members and the step before is no cloud round, so a model truncated
// after it is trained from, not averaged.
func faultyWorld(t *testing.T) (step int, sched *mobility.Schedule) {
	w := layoutWorlds["five"]
	_, _, src := w.build(t, false)
	sched = src.(*mobility.Schedule)
	for step = 1; step < w.steps; step++ {
		full := step%tinyConfig(w.steps, w.seed).CloudInterval != 0
		for n := 0; n < w.edges; n++ {
			full = full && len(sched.MembersAt(step, n)) > 0
		}
		if full {
			return step, sched
		}
	}
	t.Fatal("no step of the five-edge world has members on every edge")
	return 0, nil
}

// runFaulty runs the five-edge world under s at the given shard count, with
// the models of the edges in truncate cut to one parameter after step-1, so
// their devices fail to train at step, and returns Run's error.
func runFaulty(t *testing.T, shards int, s sampling.Strategy, step int, truncate ...int) error {
	w := layoutWorlds["five"]
	parts, test, src := w.build(t, false)
	cfg := tinyConfig(w.steps, w.seed)
	cfg.Workers, cfg.Shards = 3, shards
	eng, err := New(cfg, w.arch, parts, test, src, s)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(WithStepHook(func(done, _ int) {
		if done == step-1 {
			for _, n := range truncate {
				eng.edge[n] = eng.edge[n][:1]
			}
		}
	}))
	return err
}

// TestStepErrorPrecedence (DESIGN.md §11): a step that fails on several edges
// reports one error whatever the shard layout — every decide failure before
// any training failure, and the lowest edge within each kind.
func TestStepErrorPrecedence(t *testing.T) {
	step, _ := faultyWorld(t)
	at := func(edges ...int) map[[2]int]bool {
		m := map[[2]int]bool{}
		for _, n := range edges {
			m[[2]int{step, n}] = true
		}
		return m
	}
	for _, tc := range []struct {
		name     string
		short    map[[2]int]bool
		truncate []int
		want     string
	}{
		{"decide/decide", at(4, 1), nil, fmt.Sprintf("hfl: step %d edge 1: strategy \"faulty\" returned", step)},
		{"train/decide", at(3), []int{0}, fmt.Sprintf("hfl: step %d edge 3: strategy \"faulty\" returned", step)},
		{"train/train", nil, []int{4, 1}, fmt.Sprintf("hfl: step %d edge 1: device ", step)},
	} {
		for _, shards := range []int{1, 2, 3, 7} {
			err := runFaulty(t, shards, &faultyStrategy{short: tc.short}, step, tc.truncate...)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Errorf("%s, %d shards: err = %v, want prefix %q", tc.name, shards, err, tc.want)
			}
		}
	}
}

// TestNaNProbabilityFailsStep: a strategy that breaks its contract with
// q = NaN fails the step, naming the strategy, edge, device and q, rather
// than sampling the device with the Eq. 5 weight 1/(|M|·NaN).
func TestNaNProbabilityFailsStep(t *testing.T) {
	step, sched := faultyWorld(t)
	s := &faultyStrategy{nan: map[[2]int]bool{{step, 2}: true}}
	want := fmt.Sprintf("hfl: step %d edge 2: strategy \"faulty\": device %d sampling probability NaN, outside [0, 1]",
		step, sched.MembersAt(step, 2)[0])
	if err := runFaulty(t, 2, s, step); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestPlanNormsGrowthIsAmortized: an edge that plans one more device step
// after step reallocates its plan's norm buffer O(log n) times over n new
// highs, not once per high.
func TestPlanNormsGrowthIsAmortized(t *testing.T) {
	const n, epochs = 2048, 3
	var p edgePlan
	reallocs := 0
	for k := 1; k <= n; k++ {
		p.Picks = make([]Pick, k)
		before := cap(p.norms)
		if p.reserve(epochs); len(p.norms) < k*epochs {
			t.Fatalf("%d devices × %d epochs got %d norms", k, epochs, len(p.norms))
		}
		if cap(p.norms) != before {
			reallocs++
		}
	}
	if limit := 2 * bits.Len(n); reallocs > limit {
		t.Fatalf("%d rising plans reallocated the norms %d times, want ≤ %d", n, reallocs, limit)
	}
}
