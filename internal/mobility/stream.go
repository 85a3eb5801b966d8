package mobility

import (
	"fmt"
	"math/rand"

	"github.com/mach-fl/mach/internal/det"
)

// This file holds the streaming generator sources: the Markov, waypoint and
// Lévy mobility models as StepSources that keep only an O(Devices) window
// (current row + per-device state) instead of materializing Steps rows.
//
// RNG draw-order preservation (DESIGN.md §12): the legacy dense generators
// draw device-major from ONE shared math/rand stream, so a device's draws
// sit at data-dependent offsets that only exist once every earlier device's
// whole trajectory has been drawn — a step-major streaming emitter would
// need a full per-device math/rand state (~4.9 KB each, gigabytes at 1M
// devices) to reproduce them. The streaming sources therefore give every
// device its own one-word det.Stream and preserve the *per-device
// draw order* of the legacy models through the shared steppers (markovNext,
// waypointStep, levyStep): the chain logic cannot drift, the legacy
// waypoint and Lévy generators stay byte-identical, and
// streaming-vs-dense bit-identity is enforced where it matters — between a
// source and its Materialize'd twin through the whole engine.

// uniformRNG is the draw interface of the per-device mobility steppers;
// *rand.Rand (legacy trace generators) and *det.Stream (streaming sources)
// both satisfy it.
type uniformRNG interface {
	Float64() float64
	Intn(n int) int
	Int63n(n int64) int64
}

// Per-model substream salts, keeping a device's streams disjoint across
// mobility models built from the same seed.
const (
	saltMarkov   = 0x4d41524b // "MARK"
	saltWaypoint = 0x57415950 // "WAYP"
	saltLevy     = 0x4c455659 // "LEVY"
)

// markovNext advances one device's edge-level stay/hop chain by one step:
// stay with probability stayProb, otherwise hop to a uniformly random other
// edge, drawing one Float64 when edges > 1 and one Intn on a hop.
func markovNext(rng uniformRNG, cur, edges int, stayProb float64) int {
	if edges <= 1 || rng.Float64() < stayProb {
		return cur
	}
	// Uniform over the other edges: draw from [0, edges-1) and skip past
	// the current edge.
	hop := rng.Intn(edges - 1)
	if hop >= cur {
		hop++
	}
	return hop
}

// MarkovSource streams an edge-level stay/hop Markov chain — every device
// starts on a uniformly random edge and at each step stays with probability
// stayProb or hops to a uniformly random other edge — from an O(Devices)
// window: one splitmix64 word and one current edge per device. Memory is
// independent of the step horizon, which is what lets the scale benchmark
// run 1M devices over hundreds of steps without a dense schedule;
// Materialize gives the dense twin.
type MarkovSource struct {
	edges, devices, steps int
	stayProb              float64

	rngs  []det.Stream
	row   []int
	moves []Move
	pos   int
}

// NewMarkovSource builds a streaming Markov source positioned at step 0.
func NewMarkovSource(seed int64, edges, devices, steps int, stayProb float64) (*MarkovSource, error) {
	if edges <= 0 || devices <= 0 || steps <= 0 {
		return nil, fmt.Errorf("mobility: markov source dims %d/%d/%d must be positive", edges, devices, steps)
	}
	if stayProb < 0 || stayProb > 1 {
		return nil, fmt.Errorf("mobility: stay probability %v outside [0,1]", stayProb)
	}
	s := &MarkovSource{
		edges:    edges,
		devices:  devices,
		steps:    steps,
		stayProb: stayProb,
		rngs:     make([]det.Stream, devices),
		row:      make([]int, devices),
	}
	for m := 0; m < devices; m++ {
		s.rngs[m] = det.Stream(det.MobilityDevice(seed, saltMarkov, m))
		s.row[m] = s.rngs[m].Intn(edges)
	}
	return s, nil
}

// Dims returns (edges, devices, steps).
func (s *MarkovSource) Dims() (int, int, int) { return s.edges, s.devices, s.steps }

// AdvanceTo positions the source at step t; see StepSource. Per single-step
// advance it draws one stay coin per device and emits only the devices that
// hopped, ascending in device ID.
func (s *MarkovSource) AdvanceTo(t int) ([]Move, bool, error) {
	switch {
	case t < 0 || t >= s.steps:
		return nil, false, fmt.Errorf("mobility: step %d outside source horizon [0,%d)", t, s.steps)
	case t == s.pos:
		return nil, false, nil
	case t < s.pos:
		return nil, false, fmt.Errorf("mobility: streaming source cannot rewind from step %d to %d", s.pos, t)
	}
	rebuilt := t != s.pos+1
	for s.pos < t {
		s.pos++
		s.moves = s.moves[:0]
		for m := range s.row {
			next := markovNext(&s.rngs[m], s.row[m], s.edges, s.stayProb)
			if next != s.row[m] {
				s.moves = append(s.moves, Move{Device: m, From: s.row[m], To: next})
				s.row[m] = next
			}
		}
	}
	if rebuilt {
		return nil, true, nil
	}
	return s.moves, false, nil
}

// Snapshot appends the current attachment row into dst[:0].
func (s *MarkovSource) Snapshot(dst []int) []int { return append(dst[:0], s.row...) }

// mover is the kinematic half of a continuous-space source: advance one
// device by one time unit and report its new position.
type mover interface {
	step(m int) (x, y float64)
}

// geoSource is the shared station-geometry machinery of the waypoint and
// Lévy streaming sources: stations, the station→edge clustering, and the
// O(Devices) window (current station, current edge) a mover's kinematics
// drive. Step duration is one trace-time unit, matching
// GenerateScheduleWaypoint's BuildSchedule(..., stepDur=1) lowering.
type geoSource struct {
	edges, devices, steps int

	stations      []Station
	edgeOfStation []int
	mv            mover

	cur   []int // current station per device
	row   []int // current edge per device
	moves []Move
	pos   int
}

// initGeo places and clusters stations from the seed-level stream, then
// positions every device at step 0 via its mover.
func newGeoSource(seed int64, edges, devices, steps, stationsPerEdge int) (*geoSource, error) {
	if edges <= 0 || devices <= 0 || steps <= 0 {
		return nil, fmt.Errorf("mobility: geo source dims %d/%d/%d must be positive", edges, devices, steps)
	}
	rng := rand.New(rand.NewSource(seed))
	nStations := edges * stationsPerEdge
	if nStations < edges {
		nStations = edges
	}
	stations, err := PlaceStations(rng, nStations, DefaultPlacement())
	if err != nil {
		return nil, err
	}
	edgeOfStation, err := ClusterStations(rng, stations, edges)
	if err != nil {
		return nil, err
	}
	return &geoSource{
		edges:         edges,
		devices:       devices,
		steps:         steps,
		stations:      stations,
		edgeOfStation: edgeOfStation,
		cur:           make([]int, devices),
		row:           make([]int, devices),
	}, nil
}

// place records device m's initial position.
func (g *geoSource) place(m int, x, y float64) {
	g.cur[m] = NearestStation(g.stations, x, y)
	g.row[m] = g.edgeOfStation[g.cur[m]]
}

// Dims returns (edges, devices, steps).
func (g *geoSource) Dims() (int, int, int) { return g.edges, g.devices, g.steps }

// AdvanceTo positions the source at step t; see StepSource.
func (g *geoSource) AdvanceTo(t int) ([]Move, bool, error) {
	switch {
	case t < 0 || t >= g.steps:
		return nil, false, fmt.Errorf("mobility: step %d outside source horizon [0,%d)", t, g.steps)
	case t == g.pos:
		return nil, false, nil
	case t < g.pos:
		return nil, false, fmt.Errorf("mobility: streaming source cannot rewind from step %d to %d", g.pos, t)
	}
	rebuilt := t != g.pos+1
	for g.pos < t {
		g.pos++
		g.moves = g.moves[:0]
		for m := 0; m < g.devices; m++ {
			x, y := g.mv.step(m)
			st := NearestStation(g.stations, x, y)
			if st == g.cur[m] {
				continue
			}
			g.cur[m] = st
			if e := g.edgeOfStation[st]; e != g.row[m] {
				g.moves = append(g.moves, Move{Device: m, From: g.row[m], To: e})
				g.row[m] = e
			}
		}
	}
	if rebuilt {
		return nil, true, nil
	}
	return g.moves, false, nil
}

// Snapshot appends the current attachment row into dst[:0].
func (g *geoSource) Snapshot(dst []int) []int { return append(dst[:0], g.row...) }

// WaypointSource streams random-waypoint mobility: the same per-device
// kinematics as GenerateWaypointTrace (shared waypointStep), driven from
// per-device splitmix64 substreams over an O(Devices) window.
type WaypointSource struct {
	*geoSource
	cfg    WaypointConfig
	rngs   []det.Stream
	states []waypointState
}

// NewWaypointSource builds a streaming waypoint source positioned at step 0.
func NewWaypointSource(seed int64, edges, devices, steps, stationsPerEdge int, cfg WaypointConfig) (*WaypointSource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := newGeoSource(seed, edges, devices, steps, stationsPerEdge)
	if err != nil {
		return nil, err
	}
	w := &WaypointSource{
		geoSource: g,
		cfg:       cfg,
		rngs:      make([]det.Stream, devices),
		states:    make([]waypointState, devices),
	}
	g.mv = w
	for m := 0; m < devices; m++ {
		w.rngs[m] = det.Stream(det.MobilityDevice(seed, saltWaypoint, m))
		w.states[m] = waypointInit(&w.rngs[m], cfg)
		g.place(m, w.states[m].x, w.states[m].y)
	}
	return w, nil
}

// step advances device m's waypoint kinematics by one time unit.
func (w *WaypointSource) step(m int) (float64, float64) {
	st := &w.states[m]
	waypointStep(&w.rngs[m], st, w.cfg)
	return st.x, st.y
}

// LevySource streams Lévy-walk mobility: the same per-device kinematics as
// GenerateLevyTrace (shared levyStep), driven from per-device splitmix64
// substreams over an O(Devices) window.
type LevySource struct {
	*geoSource
	cfg    LevyConfig
	rngs   []det.Stream
	states []levyState
}

// NewLevySource builds a streaming Lévy source positioned at step 0.
func NewLevySource(seed int64, edges, devices, steps, stationsPerEdge int, cfg LevyConfig) (*LevySource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := newGeoSource(seed, edges, devices, steps, stationsPerEdge)
	if err != nil {
		return nil, err
	}
	l := &LevySource{
		geoSource: g,
		cfg:       cfg,
		rngs:      make([]det.Stream, devices),
		states:    make([]levyState, devices),
	}
	g.mv = l
	for m := 0; m < devices; m++ {
		l.rngs[m] = det.Stream(det.MobilityDevice(seed, saltLevy, m))
		l.states[m] = levyInit(&l.rngs[m], cfg)
		g.place(m, l.states[m].x, l.states[m].y)
	}
	return l, nil
}

// step advances device m's Lévy kinematics by one time unit.
func (l *LevySource) step(m int) (float64, float64) {
	st := &l.states[m]
	levyStep(&l.rngs[m], st, l.cfg)
	return st.x, st.y
}
