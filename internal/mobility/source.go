package mobility

import "fmt"

// This file is the core of the streaming mobility plane (DESIGN.md §12): the
// StepSource interface produces each step's device→edge attachments on
// demand from an O(Devices) window — the current attachment row plus a
// pooled move buffer — instead of a dense Steps × Devices matrix. A dense
// *Schedule doubles as a StepSource (the backward-compatible adapter below),
// and Materialize turns any source back into a dense Schedule, which is how
// the bit-identity between the two planes is enforced: a source and its
// materialized twin describe the same attachments by construction.

// Move records one device's edge change between two consecutive steps:
// device Device was attached to edge From at step t-1 and to edge To at
// step t. Sources never emit null moves (From == To).
type Move struct {
	Device int
	From   int
	To     int
}

// StepSource yields per-step device→edge attachments as a move stream. It is
// the engine-facing contract of the streaming mobility plane:
//
//   - Dims reports the population shape (edges, devices, steps).
//   - AdvanceTo positions the source at step t. Advancing by exactly one
//     step returns the step's moves — only the devices whose edge changed,
//     ascending in device ID — with rebuilt == false; the caller applies
//     them to its attachment row (ApplyMoves) and repairs any derived
//     indexes incrementally. Advancing to the current step is a no-op
//     (nil, false, nil). Any other jump returns rebuilt == true and no
//     moves: the caller must resynchronize its row from Snapshot. Streaming
//     sources may refuse to rewind (t below the current position) with an
//     error; the dense adapter supports random access.
//   - Snapshot appends the current attachment row (edge of every device at
//     the positioned step) into dst[:0] and returns it, growing dst only
//     when needed.
//
// The returned move slice is owned by the source and valid until the next
// AdvanceTo. A source's mutating methods (AdvanceTo, Snapshot on sources
// that compute lazily) must be called from one goroutine; the driver shares
// the resulting row and moves with its workers between advances.
//
// Determinism contract: the attachment row after AdvanceTo(t) is a pure
// function of (source construction parameters, t). Moves are ascending in
// device ID, each device appears at most once per step, and applying a
// step's moves to the previous row yields exactly the next row — so every
// downstream consumer (member indexes, transition statistics, shard
// buckets) sees identical state whether it replays moves or rebuilds from
// Snapshot.
type StepSource interface {
	Dims() (edges, devices, steps int)
	AdvanceTo(t int) (moves []Move, rebuilt bool, err error)
	Snapshot(dst []int) []int
}

// ApplyMoves applies one step's move stream to an attachment row in place.
//
//machlint:allocfree
func ApplyMoves(row []int, moves []Move) {
	for _, mv := range moves {
		row[mv.Device] = mv.To
	}
}

// Window is the O(Devices) view a driver keeps of a StepSource: the
// attachment row at the positioned step, maintained from the source's move
// stream. Everything derived from the row (member indexes, transition
// statistics, shard buckets) follows from what Advance returns.
type Window struct {
	src StepSource
	row []int
	pos int
}

// NewWindow returns an unpositioned window over src.
func NewWindow(src StepSource) *Window {
	_, devices, _ := src.Dims()
	return &Window{src: src, row: make([]int, devices), pos: -1}
}

// Pos returns the positioned step, -1 before the first Advance.
func (w *Window) Pos() int { return w.pos }

// Row returns the device→edge attachments at the positioned step. The slice
// is owned by the window and rewritten by the next Advance.
func (w *Window) Row() []int { return w.row }

// Advance positions the window at step t. A single-step advance applies the
// step's moves to the row and returns them (valid until the next Advance);
// the first positioning and any other jump resynchronize the row from
// Snapshot and report rebuilt with no moves. Advancing to the current step is
// a no-op returning (nil, false, nil).
func (w *Window) Advance(t int) (moves []Move, rebuilt bool, err error) {
	if t == w.pos {
		return nil, false, nil
	}
	moves, rebuilt, err = w.src.AdvanceTo(t)
	if err != nil {
		return nil, false, fmt.Errorf("mobility source: %w", err)
	}
	if rebuilt || w.pos < 0 {
		w.row = w.src.Snapshot(w.row)
		moves, rebuilt = nil, true
	} else {
		ApplyMoves(w.row, moves)
	}
	w.pos = t
	return moves, rebuilt, nil
}

// Dims makes *Schedule a StepSource over its pre-materialized rows.
func (s *Schedule) Dims() (edges, devices, steps int) {
	return s.Edges, s.Devices, s.Steps
}

// AdvanceTo positions the dense adapter at step t. A single-step advance
// diffs the two adjacent rows once — O(Devices) — and emits the changed
// devices as moves, so every derived index repairs from the same stream a
// true streaming source would produce (the sharded engine previously paid
// one row diff per shard; the adapter pays one per step total). Any other
// reposition is O(1): the adapter just points at the requested row and
// reports rebuilt.
func (s *Schedule) AdvanceTo(t int) ([]Move, bool, error) {
	if t < 0 || t >= s.Steps {
		return nil, false, fmt.Errorf("mobility: step %d outside schedule horizon [0,%d)", t, s.Steps)
	}
	cur := s.srcPos - 1
	switch {
	case t == cur:
		return nil, false, nil
	case cur >= 0 && t == cur+1:
		prev, row := s.edgeOf[cur], s.edgeOf[t]
		moves := s.srcMoves[:0]
		for m, e := range row {
			if e != prev[m] {
				moves = append(moves, Move{Device: m, From: prev[m], To: e})
			}
		}
		s.srcMoves = moves
		s.srcPos = t + 1
		return moves, false, nil
	default:
		s.srcPos = t + 1
		return nil, true, nil
	}
}

// Snapshot appends the adapter's current attachment row into dst[:0]. Only
// valid after an AdvanceTo.
func (s *Schedule) Snapshot(dst []int) []int {
	if s.srcPos == 0 {
		panic("mobility: Snapshot before AdvanceTo")
	}
	return append(dst[:0], s.edgeOf[s.srcPos-1]...)
}

// Materialize drains a StepSource into a dense Schedule, validating the
// partition property along the way. It is the bridge between the streaming
// and dense planes: a source and its materialized twin are bit-identical by
// construction, which is what the engine's streaming-vs-dense golden tests
// lean on. The source is left positioned at its final step; construct a
// fresh source (same parameters) to drive a run afterwards.
func Materialize(src StepSource) (*Schedule, error) {
	edges, devices, steps := src.Dims()
	s, err := NewSchedule(edges, devices, steps)
	if err != nil {
		return nil, err
	}
	row := make([]int, devices)
	for t := 0; t < steps; t++ {
		moves, rebuilt, err := src.AdvanceTo(t)
		if err != nil {
			return nil, fmt.Errorf("mobility: materialize step %d: %w", t, err)
		}
		if rebuilt || t == 0 {
			row = src.Snapshot(row)
		} else {
			ApplyMoves(row, moves)
		}
		copy(s.edgeOf[t], row)
	}
	return s, s.Validate()
}
