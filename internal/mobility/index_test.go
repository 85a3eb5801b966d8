package mobility

import (
	"math/rand"
	"reflect"
	"testing"
)

// scheduleFeed drives a member index from a dense schedule the way the
// engine does: one AdvanceTo on the schedule's StepSource adapter per seek,
// the attachment row repaired from the step's moves or resynced from Snapshot
// after a jump, then AdvanceWith.
type scheduleFeed struct {
	s   *Schedule
	row []int
}

func (f *scheduleFeed) seek(t testing.TB, ix *MemberIndex, step int) {
	t.Helper()
	moves, rebuilt, err := f.s.AdvanceTo(step)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt || f.row == nil {
		f.row, rebuilt = f.s.Snapshot(f.row), true
	} else {
		ApplyMoves(f.row, moves)
	}
	ix.AdvanceWith(step, f.row, moves, rebuilt)
	if ix.Step() != step {
		t.Fatalf("index at step %d after seeking %d", ix.Step(), step)
	}
}

// markovSchedule materializes a streaming MarkovSource into a dense schedule.
func markovSchedule(t testing.TB, seed int64, edges, devices, steps int, stay float64) *Schedule {
	t.Helper()
	src, err := NewMarkovSource(seed, edges, devices, steps, stay)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkIndexMatchesNaive compares the index's view of every covered edge at
// the index's current step against the naive MembersAt rescan.
func checkIndexMatchesNaive(t *testing.T, ix *MemberIndex, s *Schedule) {
	t.Helper()
	step := ix.Step()
	for n := ix.Lo(); n < ix.Hi(); n++ {
		want := s.MembersAt(step, n)
		got := ix.Members(n)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d edge %d: index %v, naive %v", step, n, got, want)
		}
		if ix.Count(n) != len(want) {
			t.Fatalf("step %d edge %d: count %d, want %d", step, n, ix.Count(n), len(want))
		}
	}
}

// indexSchedules builds the property-test corpus: Markov schedules across
// the mobility spectrum (high locality → delta path, churn → rebuild
// fallback), a waypoint schedule, and a shape with more edges than devices
// so some edges are always empty.
func indexSchedules(t *testing.T) map[string]*Schedule {
	t.Helper()
	out := map[string]*Schedule{}
	for name, cfg := range map[string]struct {
		edges, devices, steps int
		stay                  float64
	}{
		"markov-sticky": {5, 40, 60, 0.95},
		"markov-churn":  {4, 25, 50, 0.10},
		"markov-frozen": {3, 10, 20, 1.0},
		"empty-edges":   {12, 4, 30, 0.7},
		"single-edge":   {1, 8, 10, 0.5},
		// Many edges, few movers: moved < Edges/2 every step, so this is the
		// schedule that actually drives the sorted remove/insert repair path.
		"sparse-edges": {50, 30, 40, 0.8},
	} {
		out[name] = markovSchedule(t, int64(len(name)), cfg.edges, cfg.devices, cfg.steps, cfg.stay)
	}
	wp, err := GenerateSchedule(11, 6, 20, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	out["waypoint"] = wp
	return out
}

// TestMemberIndexMatchesNaiveSequential drives the index through every step
// in order — the delta path — and requires equality with MembersAt at each.
func TestMemberIndexMatchesNaiveSequential(t *testing.T) {
	for name, s := range indexSchedules(t) {
		t.Run(name, func(t *testing.T) {
			ix, feed := NewMemberIndexWindow(0, s.Edges), scheduleFeed{s: s}
			for step := 0; step < s.Steps; step++ {
				feed.seek(t, ix, step)
				checkIndexMatchesNaive(t, ix, s)
			}
		})
	}
}

// TestMemberIndexMatchesNaiveRandomJumps exercises the rebuild path: random
// seeks (including re-advancing to the current step and jumping backwards)
// must land on exactly the naive membership.
func TestMemberIndexMatchesNaiveRandomJumps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for name, s := range indexSchedules(t) {
		t.Run(name, func(t *testing.T) {
			ix, feed := NewMemberIndexWindow(0, s.Edges), scheduleFeed{s: s}
			for i := 0; i < 3*s.Steps; i++ {
				feed.seek(t, ix, rng.Intn(s.Steps))
				checkIndexMatchesNaive(t, ix, s)
			}
		})
	}
}

// TestMemberIndexSteadyStateZeroAllocs pins the pooling contract: once the
// per-edge buffers have grown to the schedule's occupancy, advancing the
// index allocates nothing on either path.
func TestMemberIndexSteadyStateZeroAllocs(t *testing.T) {
	s := markovSchedule(t, 7, 8, 200, 120, 0.9)
	ix, feed := NewMemberIndexWindow(0, s.Edges), scheduleFeed{s: s}
	for step := 0; step < s.Steps; step++ { // warm-up grows every buffer
		feed.seek(t, ix, step)
	}
	step := 0
	allocs := testing.AllocsPerRun(100, func() {
		feed.seek(t, ix, step%s.Steps) // sequential wrap: delta steps + one rebuild jump
		step++
	})
	if allocs != 0 {
		t.Fatalf("steady-state AdvanceWith allocates %v objects per step", allocs)
	}
}

// TestMembersAtIntoReusesBuffer checks the caller-owned-buffer contract and
// equality with MembersAt.
func TestMembersAtIntoReusesBuffer(t *testing.T) {
	s := markovSchedule(t, 3, 4, 30, 25, 0.8)
	buf := make([]int, 0, s.Devices)
	for step := 0; step < s.Steps; step++ {
		for n := 0; n < s.Edges; n++ {
			buf = s.MembersAtInto(buf, step, n)
			want := s.MembersAt(step, n)
			if len(buf) != len(want) {
				t.Fatalf("step %d edge %d: into %v, want %v", step, n, buf, want)
			}
			for i, m := range want {
				if buf[i] != m {
					t.Fatalf("step %d edge %d: into %v, want %v", step, n, buf, want)
				}
			}
			if cap(buf) != s.Devices {
				t.Fatalf("MembersAtInto reallocated a sufficient buffer (cap %d)", cap(buf))
			}
		}
	}
}

// BenchmarkMemberIndexAdvance measures the per-step cost of positioning the
// index at bench scale: stay 0.95 moves ~5% of devices per step (above the
// Edges/2 repair threshold → counting rebuild), stay 0.999 moves ~10 (below
// it → sorted remove/insert repair).
func BenchmarkMemberIndexAdvance(b *testing.B) {
	for _, bc := range []struct {
		name string
		stay float64
	}{{"rebuild", 0.95}, {"delta", 0.999}} {
		b.Run(bc.name, func(b *testing.B) {
			s := markovSchedule(b, 1, 100, 10000, 64, bc.stay)
			ix, feed := NewMemberIndexWindow(0, s.Edges), scheduleFeed{s: s}
			for step := 0; step < s.Steps; step++ {
				feed.seek(b, ix, step)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				feed.seek(b, ix, i%s.Steps)
			}
		})
	}
}

// BenchmarkMembersAtScan is the naive counterpart: one full MembersAt sweep
// over all edges, the per-step membership cost of the pre-index engine.
func BenchmarkMembersAtScan(b *testing.B) {
	s := markovSchedule(b, 1, 100, 10000, 64, 0.95)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := i % s.Steps
		for n := 0; n < s.Edges; n++ {
			_ = s.MembersAt(step, n)
		}
	}
}
