package hfl

import (
	"bytes"
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

// TestCheckpointRestoreAcrossShardCounts covers resharding at a checkpoint
// boundary: a run checkpointed under one shard count and resumed under
// another must continue exactly like a same-shard-count resume, because the
// checkpoint carries only the global model and the shard layout never
// reaches a value.
func TestCheckpointRestoreAcrossShardCounts(t *testing.T) {
	cell := layoutCell{world: "five", strategy: "uniform", workers: 3, shards: 2}
	var ckpt bytes.Buffer
	if err := runCell(t, cell, nil).eng.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	restore := func(e *Engine) {
		if err := e.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	cell.shards = 1
	ref := runCell(t, cell, restore)
	for _, shards := range []int{2, 3} {
		cell.shards = shards
		if d := ref.diverge(runCell(t, cell, restore)); d != "" {
			t.Fatalf("resumed %s diverges at %s", cell, d)
		}
	}
}
