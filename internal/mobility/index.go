package mobility

import "sort"

// MemberIndex is a per-step membership index fed by the StepSource protocol:
// it materializes M^t_n for every covered edge at once, so per-step control
// logic reads edge members in O(1) per edge instead of rescanning all devices
// per edge. A full build is a counting pass over the step's attachment row —
// O(Devices + Edges) — into pooled per-edge buffers, so steady-state
// positioning allocates nothing.
//
// Consecutive steps take an incremental delta path exploiting the trace's
// spatial locality: only the devices in the step's move stream are removed
// from their old edge list and inserted into their new one, keeping every
// list in ascending device order. Each repair shifts O(Devices/Edges)
// elements, so once a step moves more than about half the covered edge count
// the counting rebuild is cheaper and the index falls back to it, bounding
// the worst case at the full-build cost.
//
// An index covers a contiguous *range* of edges [lo, hi); hfl.Engine and
// fed.Cloud each keep one index over every edge, [0, E). Whether a list was
// produced by a full index, a range index, a rebuild or a delta repair, its
// contents are identical — membership is a pure function of the attachment
// row — so range scoping never affects what callers read.
//
// Member lists are ascending in device ID — exactly the order
// Schedule.MembersAt returns — so decision logic that walks members in order
// draws its randomness at the same stream offsets as the naive scan.
//
// A MemberIndex is not safe for concurrent mutation: AdvanceWith must be
// called from one goroutine, but any number of goroutines may call
// Members/Count between advances (the per-step parallel decide phase does
// exactly that).
type MemberIndex struct {
	step   int // current step, -1 before the first AdvanceWith
	lo, hi int // covered edge range [lo, hi)

	members [][]int // members[n-lo]: devices on edge n at the current step, ascending
	counts  []int   // counting-pass scratch, one cell per covered edge
}

// Delta advances rebuild from scratch once more than covered/deltaRebuildDen
// devices moved in one step (covered = hi-lo, the range width). A moved
// device costs an O(list length) sorted remove + insert — about
// 2·Devices/Edges element moves — while the counting rebuild costs
// O(Devices) flat, so repair wins only while
// moved · 2·Devices/Edges < Devices, i.e. moved < Edges/2.
const deltaRebuildDen = 2

// NewMemberIndexWindow returns an index covering the edges [lo, hi),
// positioned at no step: the caller feeds it the per-step attachment row and
// move stream through AdvanceWith. The index holds only its covered member
// lists plus O(hi-lo) scratch, never a dense schedule. Build and repair cost
// scale with the range: the counting pass still scans the full device row
// (membership of a range is not locally decidable) but sizes, fills and
// repairs only the covered lists. Members/Count must only be asked about
// edges inside the range.
func NewMemberIndexWindow(lo, hi int) *MemberIndex {
	if lo < 0 || lo > hi {
		panic("mobility: member index range out of bounds")
	}
	return &MemberIndex{
		step:    -1,
		lo:      lo,
		hi:      hi,
		members: make([][]int, hi-lo),
		counts:  make([]int, hi-lo),
	}
}

// Step returns the step the index is positioned at, or -1 before the first
// AdvanceWith.
func (ix *MemberIndex) Step() int { return ix.step }

// Lo returns the first covered edge.
func (ix *MemberIndex) Lo() int { return ix.lo }

// Hi returns one past the last covered edge.
func (ix *MemberIndex) Hi() int { return ix.hi }

// Members returns M^t_n for the current step, ascending in device ID. The
// slice is owned by the index and valid until the next AdvanceWith; callers
// must not mutate or retain it across advances. n must lie in the covered
// range.
func (ix *MemberIndex) Members(n int) []int { return ix.members[n-ix.lo] }

// Count returns |M^t_n| for the current step. n must lie in the covered
// range.
func (ix *MemberIndex) Count(n int) int { return len(ix.members[n-ix.lo]) }

// AdvanceWith positions the index at step t from the caller's attachment row
// and move stream — the StepSource protocol. row is the full device→edge row
// at step t; moves is the step's move stream when the caller advanced by
// exactly one step (rebuilt false). Advancing to the current step is a no-op.
// A single-step advance repairs only the moves that intersect the covered
// range — O(moves·log + shifts), no row-vs-row diff — and falls back to the
// counting rebuild over row when too many covered devices moved; any other
// jump rebuilds.
//
//machlint:allocfree
func (ix *MemberIndex) AdvanceWith(t int, row []int, moves []Move, rebuilt bool) {
	switch {
	case t == ix.step:
		return
	case !rebuilt && ix.step >= 0 && t == ix.step+1 && ix.applyMovesDelta(t, moves):
		return
	default:
		ix.rebuildRow(t, row)
	}
}

// applyMovesDelta repairs the member lists with one step's move stream,
// touching only moves that intersect the covered range. It reports false —
// leaving the index unchanged — when the step moved too many covered devices
// for a repair to beat a rebuild: a move entirely outside the range costs
// nothing and does not count against the budget.
func (ix *MemberIndex) applyMovesDelta(t int, moves []Move) bool {
	limit := (ix.hi - ix.lo) / deltaRebuildDen
	covered := 0
	for _, mv := range moves {
		if ix.covers(mv.From) || ix.covers(mv.To) {
			covered++
			if covered > limit {
				return false
			}
		}
	}
	for _, mv := range moves {
		if ix.covers(mv.From) {
			ix.members[mv.From-ix.lo] = removeSorted(ix.members[mv.From-ix.lo], mv.Device)
		}
	}
	for _, mv := range moves {
		if ix.covers(mv.To) {
			ix.members[mv.To-ix.lo] = insertSorted(ix.members[mv.To-ix.lo], mv.Device)
		}
	}
	ix.step = t
	return true
}

// rebuildRow builds the member lists for step t from an explicit attachment
// row by counting sort: one pass sizes each covered edge's list, a second
// fills them in ascending device order.
func (ix *MemberIndex) rebuildRow(t int, row []int) {
	counts := ix.counts
	for n := range counts {
		counts[n] = 0
	}
	for _, e := range row {
		if e >= ix.lo && e < ix.hi {
			counts[e-ix.lo]++
		}
	}
	for n := range ix.members {
		if cap(ix.members[n]) < counts[n] {
			// Grow with slack: edge populations drift up and down, and
			// allocating to the exact count would realloc every time an edge
			// hits a new maximum.
			ix.members[n] = make([]int, 0, counts[n]+counts[n]/8+4)
		} else {
			ix.members[n] = ix.members[n][:0]
		}
	}
	for m, e := range row {
		if e >= ix.lo && e < ix.hi {
			ix.members[e-ix.lo] = append(ix.members[e-ix.lo], m)
		}
	}
	ix.step = t
}

// covers reports whether edge n lies in the index's covered range.
func (ix *MemberIndex) covers(n int) bool { return n >= ix.lo && n < ix.hi }

// removeSorted deletes v from an ascending slice that contains it.
func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// insertSorted inserts v into an ascending slice that does not contain it.
func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
