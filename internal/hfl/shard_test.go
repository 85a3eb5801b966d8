package hfl

import (
	"testing"

	"github.com/mach-fl/mach/internal/sampling"
)

// TestShardLayout checks the canonical shard geometry: ranges are contiguous,
// nonempty, cover every edge exactly once, and the configured count clamps
// to the edge count.
func TestShardLayout(t *testing.T) {
	parts, test, sched := tinySetup(t, 12, 5, 12, 21)
	for _, tc := range []struct{ configured, want int }{
		{0, 1}, {1, 1}, {2, 2}, {5, 5}, {99, 5},
	} {
		cfg := tinyConfig(12, 21)
		cfg.Shards = tc.configured
		strat := sampling.NewUniform()
		eng, err := New(cfg, tinyArch, parts, test, sched, strat)
		if err != nil {
			t.Fatal(err)
		}
		if len(eng.shards) != tc.want {
			t.Fatalf("Shards=%d: %d shards, want %d", tc.configured, len(eng.shards), tc.want)
		}
		next := 0
		for i, s := range eng.shards {
			if s.lo != next {
				t.Fatalf("Shards=%d: shard %d starts at edge %d, want %d", tc.configured, i, s.lo, next)
			}
			if s.hi <= s.lo {
				t.Fatalf("Shards=%d: shard %d owns empty range [%d,%d)", tc.configured, i, s.lo, s.hi)
			}
			next = s.hi
		}
		if next != sched.Edges {
			t.Fatalf("Shards=%d: shards cover %d edges, want %d", tc.configured, next, sched.Edges)
		}
	}
}
