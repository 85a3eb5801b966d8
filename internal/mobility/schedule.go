package mobility

import (
	"fmt"
	"math/rand"
)

// Schedule is the realized mobility indicator B^t_{n,m} of §II-A: for every
// FL time step t it records which edge each device is attached to. Because a
// device attaches to exactly one (nearest) edge, the per-step edge device
// sets partition the device set (Eq. 1), which Validate checks.
type Schedule struct {
	Edges   int
	Devices int
	Steps   int
	// edgeOf[t][m] is the edge device m is attached to at time step t.
	edgeOf [][]int

	// StepSource adapter state (source.go): srcPos is the adapter cursor
	// encoded as current step + 1 so the zero value means "unpositioned",
	// and srcMoves is the pooled move buffer of the single-step row diff.
	srcPos   int
	srcMoves []Move
}

// NewSchedule allocates a schedule with every device on edge 0.
func NewSchedule(edges, devices, steps int) (*Schedule, error) {
	if edges <= 0 || devices <= 0 || steps <= 0 {
		return nil, fmt.Errorf("mobility: schedule dims %d/%d/%d must be positive", edges, devices, steps)
	}
	s := &Schedule{Edges: edges, Devices: devices, Steps: steps, edgeOf: make([][]int, steps)}
	for t := range s.edgeOf {
		s.edgeOf[t] = make([]int, devices)
	}
	return s, nil
}

// Set assigns device m to edge n at step t.
func (s *Schedule) Set(t, m, n int) {
	s.edgeOf[t][m] = n
}

// EdgeOf returns the edge device m is attached to at step t.
func (s *Schedule) EdgeOf(t, m int) int { return s.edgeOf[t][m] }

// MembersAt returns M^t_n, the devices attached to edge n at step t.
// It allocates a fresh slice per call and rescans every device; per-step
// control loops should use a MemberIndex (all edges in one O(Devices+Edges)
// pass) or MembersAtInto (caller-owned buffer) instead.
func (s *Schedule) MembersAt(t, n int) []int {
	return s.MembersAtInto(nil, t, n)
}

// MembersAtInto appends the devices attached to edge n at step t to dst[:0]
// and returns it, growing dst only when its capacity is insufficient. Device
// IDs are ascending, matching MembersAt.
func (s *Schedule) MembersAtInto(dst []int, t, n int) []int {
	dst = dst[:0]
	for m, e := range s.edgeOf[t] {
		if e == n {
			dst = append(dst, m)
		}
	}
	return dst
}

// Validate checks the partition property (Eq. 1): every device is attached
// to exactly one valid edge at every step.
func (s *Schedule) Validate() error {
	if len(s.edgeOf) != s.Steps {
		return fmt.Errorf("mobility: schedule has %d step rows, want %d", len(s.edgeOf), s.Steps)
	}
	for t, row := range s.edgeOf {
		if len(row) != s.Devices {
			return fmt.Errorf("mobility: step %d has %d devices, want %d", t, len(row), s.Devices)
		}
		for m, e := range row {
			if e < 0 || e >= s.Edges {
				return fmt.Errorf("mobility: step %d device %d on invalid edge %d", t, m, e)
			}
		}
	}
	return nil
}

// TransitionRate returns the fraction of device-steps at which the attached
// edge changed relative to the previous step — the cross-edge mobility
// intensity of the trace.
func (s *Schedule) TransitionRate() float64 {
	if s.Steps < 2 {
		return 0
	}
	changes := 0
	for t := 1; t < s.Steps; t++ {
		for m := 0; m < s.Devices; m++ {
			if s.edgeOf[t][m] != s.edgeOf[t-1][m] {
				changes++
			}
		}
	}
	return float64(changes) / float64((s.Steps-1)*s.Devices)
}

// EdgeOccupancy returns the mean number of devices per edge over all steps.
func (s *Schedule) EdgeOccupancy() []float64 {
	occ := make([]float64, s.Edges)
	for t := 0; t < s.Steps; t++ {
		for _, e := range s.edgeOf[t] {
			occ[e]++
		}
	}
	for n := range occ {
		occ[n] /= float64(s.Steps)
	}
	return occ
}

// BuildSchedule converts a trace into a per-step edge schedule. Time is
// discretized into steps of stepDur trace-time units; the station a device
// accesses at the start of a step determines its edge through edgeOf
// (the station→edge clustering). Gaps are filled by carrying the last known
// station forward (devices stay attached to the nearest edge while idle);
// leading gaps are back-filled from the device's first record.
func BuildSchedule(trace *Trace, edgeOfStation []int, edges, devices, steps int, stepDur int64) (*Schedule, error) {
	if stepDur <= 0 {
		return nil, fmt.Errorf("mobility: step duration %d must be positive", stepDur)
	}
	s, err := NewSchedule(edges, devices, steps)
	if err != nil {
		return nil, err
	}
	// stationAt[t][m], -1 = unknown.
	stationAt := make([][]int, steps)
	for t := range stationAt {
		stationAt[t] = make([]int, devices)
		for m := range stationAt[t] {
			stationAt[t][m] = -1
		}
	}
	for _, r := range trace.Records {
		if r.Device >= devices {
			continue // trace may contain more devices than the experiment uses
		}
		if r.Station >= len(edgeOfStation) {
			return nil, fmt.Errorf("mobility: record references station %d outside clustering (%d stations)", r.Station, len(edgeOfStation))
		}
		first, last := recordSteps(r.Start, r.End, stepDur)
		for t := first; t <= last && t < int64(steps); t++ {
			if t < 0 {
				continue
			}
			stationAt[t][r.Device] = r.Station
		}
	}
	for m := 0; m < devices; m++ {
		// Back-fill a leading gap from the first known station.
		firstKnown := -1
		for t := 0; t < steps; t++ {
			if stationAt[t][m] >= 0 {
				firstKnown = t
				break
			}
		}
		if firstKnown < 0 {
			return nil, fmt.Errorf("mobility: device %d has no records within the horizon", m)
		}
		for t := 0; t < firstKnown; t++ {
			stationAt[t][m] = stationAt[firstKnown][m]
		}
		// Carry forward across gaps.
		for t := 1; t < steps; t++ {
			if stationAt[t][m] < 0 {
				stationAt[t][m] = stationAt[t-1][m]
			}
		}
		for t := 0; t < steps; t++ {
			s.Set(t, m, edgeOfStation[stationAt[t][m]])
		}
	}
	return s, s.Validate()
}

// recordSteps maps one access record [start, end) onto the FL steps whose
// boundaries it covers: the first step whose boundary the station holds at
// (start rounded up to a step boundary) through the last boundary before
// end. A record that spans no step boundary yields first > last and covers
// nothing. This is the one trace→attachment lowering both the dense
// (BuildSchedule) and streaming (TraceSource) paths use, so the two cannot
// drift.
func recordSteps(start, end, stepDur int64) (first, last int64) {
	first = start / stepDur
	if start%stepDur != 0 {
		first++ // station must hold at the step boundary
	}
	last = (end - 1) / stepDur
	return first, last
}

// GenerateSchedule is the one-call path used by tests and benches: it places
// stations, simulates waypoint mobility, clusters stations into edges, and
// builds the schedule, all from a single seed.
func GenerateSchedule(seed int64, edges, devices, steps, stationsPerEdge int) (*Schedule, error) {
	return GenerateScheduleWaypoint(seed, edges, devices, steps, stationsPerEdge, DefaultWaypoint())
}

// GenerateScheduleWaypoint is GenerateSchedule with an explicit waypoint
// mobility configuration, letting experiments control how fast devices cross
// edges.
func GenerateScheduleWaypoint(seed int64, edges, devices, steps, stationsPerEdge int, wcfg WaypointConfig) (*Schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	nStations := edges * stationsPerEdge
	if nStations < edges {
		nStations = edges
	}
	stations, err := PlaceStations(rng, nStations, DefaultPlacement())
	if err != nil {
		return nil, err
	}
	trace, err := GenerateWaypointTrace(rng, stations, devices, int64(steps), wcfg)
	if err != nil {
		return nil, err
	}
	edgeOfStation, err := ClusterStations(rng, stations, edges)
	if err != nil {
		return nil, err
	}
	return BuildSchedule(trace, edgeOfStation, edges, devices, steps, 1)
}
