package mobility

import (
	"math/rand"
	"testing"
)

// TestAdvanceWithRangesMatchRescan: an index covering only part of the edge
// range — a shard's view, down to the empty range — holds exactly the
// MembersAt rescan of its edges, through single-step repairs, forced rebuilds
// (high-churn steps beyond the repair budget) and forward jumps.
func TestAdvanceWithRangesMatchRescan(t *testing.T) {
	for _, r := range [][2]int{{0, 6}, {2, 5}, {4, 4}} {
		// stayProb 0.3 makes many steps exceed the repair budget, so both the
		// applyMovesDelta and rebuildRow paths are exercised. A schedule per
		// range keeps the adapter cursor from leaking between ranges.
		sched, err := GenerateMarkovSchedule(17, 6, 90, 25, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		ix, feed := NewMemberIndexWindow(r[0], r[1]), scheduleFeed{s: sched}
		rng := rand.New(rand.NewSource(int64(r[0])))
		for step := 0; step < sched.Steps; {
			feed.seek(t, ix, step)
			checkIndexMatchesNaive(t, ix, sched)
			// Mix of single-step advances (delta/rebuild paths) and jumps.
			if rng.Intn(4) == 0 {
				step += 1 + rng.Intn(3)
			} else {
				step++
			}
		}
	}
}
