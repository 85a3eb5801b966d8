package mobility

import (
	"testing"
)

// walkSource drives src from step 0 to its horizon one step at a time,
// maintaining an attachment row from the move stream, and returns the row at
// every step. Along the way it enforces the StepSource contract: single-step
// advances never report rebuilt, moves are ascending in device ID with no
// null moves, each move's From matches the maintained row, and Snapshot
// always agrees with the move-replayed row.
func walkSource(t *testing.T, src StepSource) [][]int {
	t.Helper()
	_, devices, steps := src.Dims()
	row := make([]int, devices)
	snap := make([]int, 0, devices)
	out := make([][]int, 0, steps)
	for step := 0; step < steps; step++ {
		moves, rebuilt, err := src.AdvanceTo(step)
		if err != nil {
			t.Fatalf("AdvanceTo(%d): %v", step, err)
		}
		if step == 0 {
			row = src.Snapshot(row)
		} else {
			if rebuilt {
				t.Fatalf("single-step advance to %d reported rebuilt", step)
			}
			prev := -1
			for _, mv := range moves {
				if mv.Device <= prev {
					t.Fatalf("step %d: move devices not strictly ascending: %v", step, moves)
				}
				prev = mv.Device
				if mv.From == mv.To {
					t.Fatalf("step %d: null move %+v", step, mv)
				}
				if row[mv.Device] != mv.From {
					t.Fatalf("step %d: move %+v disagrees with row edge %d", step, mv, row[mv.Device])
				}
			}
			ApplyMoves(row, moves)
		}
		snap = src.Snapshot(snap)
		for m := range snap {
			if snap[m] != row[m] {
				t.Fatalf("step %d device %d: snapshot edge %d, move-replayed row %d", step, m, snap[m], row[m])
			}
		}
		out = append(out, append([]int(nil), row...))
	}
	return out
}

// TestScheduleAdapterEmitsRowDiffs: walking a dense schedule through its
// StepSource adapter reproduces exactly the schedule's rows, via moves that
// are the adjacent-row diffs.
func TestScheduleAdapterEmitsRowDiffs(t *testing.T) {
	sched := markovSchedule(t, 3, 5, 60, 20, 0.7)
	rows := walkSource(t, sched)
	for step := range rows {
		for m, e := range rows[step] {
			if want := sched.EdgeOf(step, m); e != want {
				t.Fatalf("step %d device %d: adapter row %d, schedule %d", step, m, e, want)
			}
		}
	}
}

// TestScheduleAdapterRandomAccess: unlike streaming sources, the dense
// adapter repositions anywhere — forward jumps and rewinds both succeed with
// rebuilt == true, and Snapshot lands on the requested row.
func TestScheduleAdapterRandomAccess(t *testing.T) {
	sched := markovSchedule(t, 4, 4, 30, 12, 0.5)
	for _, step := range []int{7, 3, 11, 0} { // forward jump, rewind, jump, rewind
		moves, rebuilt, err := sched.AdvanceTo(step)
		if err != nil {
			t.Fatalf("AdvanceTo(%d): %v", step, err)
		}
		if !rebuilt || moves != nil {
			t.Fatalf("jump to %d: moves %v rebuilt %v, want nil/true", step, moves, rebuilt)
		}
		row := sched.Snapshot(nil)
		for m, e := range row {
			if want := sched.EdgeOf(step, m); e != want {
				t.Fatalf("step %d device %d: snapshot %d, schedule %d", step, m, e, want)
			}
		}
	}
	// A single-step advance after repositioning emits the row diff.
	moves, rebuilt, err := sched.AdvanceTo(1)
	if err != nil || rebuilt {
		t.Fatalf("single-step after reposition: rebuilt %v err %v", rebuilt, err)
	}
	for _, mv := range moves {
		if sched.EdgeOf(0, mv.Device) != mv.From || sched.EdgeOf(1, mv.Device) != mv.To {
			t.Fatalf("move %+v is not the row diff", mv)
		}
	}
	if _, _, err := sched.AdvanceTo(12); err == nil {
		t.Fatal("expected horizon error")
	}
	if _, _, err := sched.AdvanceTo(-1); err == nil {
		t.Fatal("expected negative step error")
	}
}

// TestMaterializeScheduleRoundTrip: materializing a schedule's own adapter
// reproduces the schedule bit for bit.
func TestMaterializeScheduleRoundTrip(t *testing.T) {
	sched := markovSchedule(t, 9, 6, 50, 15, 0.8)
	twin, err := Materialize(sched)
	if err != nil {
		t.Fatal(err)
	}
	if twin.Edges != sched.Edges || twin.Devices != sched.Devices || twin.Steps != sched.Steps {
		t.Fatalf("twin dims %d/%d/%d", twin.Edges, twin.Devices, twin.Steps)
	}
	for step := 0; step < sched.Steps; step++ {
		for m := 0; m < sched.Devices; m++ {
			if twin.EdgeOf(step, m) != sched.EdgeOf(step, m) {
				t.Fatalf("step %d device %d diverged", step, m)
			}
		}
	}
}
