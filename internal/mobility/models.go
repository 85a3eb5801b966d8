package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// WaypointConfig parameterizes random-waypoint mobility: each device walks
// toward a uniformly random destination at a uniformly random speed, pauses,
// then picks a new destination. It is the classical continuous-space model
// for human mobility in MEC studies.
type WaypointConfig struct {
	Width    float64
	Height   float64
	SpeedMin float64 // distance units per time unit
	SpeedMax float64
	PauseMax int64 // maximum pause at a waypoint, in time units
}

// DefaultWaypoint produces cross-edge transition rates of a few percent per
// time unit on the default 100×100 region, comparable to telecom traces.
func DefaultWaypoint() WaypointConfig {
	return WaypointConfig{Width: 100, Height: 100, SpeedMin: 0.5, SpeedMax: 3, PauseMax: 5}
}

// Validate reports whether the waypoint config is usable.
func (c WaypointConfig) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("mobility: waypoint region %vx%v invalid", c.Width, c.Height)
	case c.SpeedMin <= 0 || c.SpeedMax < c.SpeedMin:
		return fmt.Errorf("mobility: waypoint speeds [%v,%v] invalid", c.SpeedMin, c.SpeedMax)
	case c.PauseMax < 0:
		return fmt.Errorf("mobility: negative pause %d", c.PauseMax)
	}
	return nil
}

// waypointState is one device's random-waypoint kinematic state: position,
// destination, speed, remaining pause. Shared by the legacy trace generator
// and the streaming WaypointSource, so the model cannot drift between the
// dense and streaming paths.
type waypointState struct {
	x, y         float64
	destX, destY float64
	speed        float64
	pause        int64
}

// waypointInit draws a device's initial state — position, destination,
// speed — in exactly the order GenerateWaypointTrace always drew.
func waypointInit(rng uniformRNG, cfg WaypointConfig) waypointState {
	var st waypointState
	st.x, st.y = rng.Float64()*cfg.Width, rng.Float64()*cfg.Height
	st.destX, st.destY = rng.Float64()*cfg.Width, rng.Float64()*cfg.Height
	st.speed = cfg.SpeedMin + rng.Float64()*(cfg.SpeedMax-cfg.SpeedMin)
	return st
}

// waypointStep advances one device by one time unit: sit out a pause, or
// walk toward the destination, picking a new one (plus speed and pause) on
// arrival. Draw order is exactly the legacy generator's.
func waypointStep(rng uniformRNG, st *waypointState, cfg WaypointConfig) {
	if st.pause > 0 {
		st.pause--
		return
	}
	dx, dy := st.destX-st.x, st.destY-st.y
	dist := math.Hypot(dx, dy)
	if dist <= st.speed {
		st.x, st.y = st.destX, st.destY
		st.destX, st.destY = rng.Float64()*cfg.Width, rng.Float64()*cfg.Height
		st.speed = cfg.SpeedMin + rng.Float64()*(cfg.SpeedMax-cfg.SpeedMin)
		if cfg.PauseMax > 0 {
			st.pause = rng.Int63n(cfg.PauseMax + 1)
		}
	} else {
		st.x += dx / dist * st.speed
		st.y += dy / dist * st.speed
	}
}

// GenerateWaypointTrace simulates devices moving by random waypoint for the
// given number of time units, attaching to the nearest station at every unit,
// and emits one access record per dwell interval.
func GenerateWaypointTrace(rng *rand.Rand, stations []Station, devices int, horizon int64, cfg WaypointConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(stations) == 0 || devices <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("mobility: waypoint needs stations/devices/horizon > 0")
	}
	trace := &Trace{}
	for m := 0; m < devices; m++ {
		st := waypointInit(rng, cfg)
		cur := NearestStation(stations, st.x, st.y)
		var start int64
		for t := int64(1); t <= horizon; t++ {
			waypointStep(rng, &st, cfg)
			if t == horizon {
				if err := trace.Append(Record{Device: m, Station: cur, Start: start, End: horizon}); err != nil {
					return nil, err
				}
				break
			}
			next := NearestStation(stations, st.x, st.y)
			if next != cur {
				if err := trace.Append(Record{Device: m, Station: cur, Start: start, End: t}); err != nil {
					return nil, err
				}
				cur, start = next, t
			}
		}
	}
	trace.Sort()
	return trace, nil
}

// MarkovConfig parameterizes station-level Markov mobility: at every time
// unit a device stays on its station with probability StayProb and otherwise
// hops to one of its Neighbors nearest stations uniformly. This is the
// "classical mobility model such as Markov mobility" the paper cites for
// predicting device locations.
type MarkovConfig struct {
	StayProb  float64
	Neighbors int
}

// Validate reports whether the Markov config is usable.
func (c MarkovConfig) Validate() error {
	switch {
	case c.StayProb < 0 || c.StayProb > 1:
		return fmt.Errorf("mobility: stay probability %v outside [0,1]", c.StayProb)
	case c.Neighbors <= 0:
		return fmt.Errorf("mobility: need ≥ 1 neighbor, got %d", c.Neighbors)
	}
	return nil
}

// GenerateMarkovTrace simulates devices hopping between neighbouring
// stations with a stay/hop Markov chain and emits dwell-interval records.
func GenerateMarkovTrace(rng *rand.Rand, stations []Station, devices int, horizon int64, cfg MarkovConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(stations) == 0 || devices <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("mobility: markov needs stations/devices/horizon > 0")
	}
	neighbors := nearestNeighbors(stations, cfg.Neighbors)
	trace := &Trace{}
	for m := 0; m < devices; m++ {
		cur := rng.Intn(len(stations))
		var start int64
		for t := int64(1); t <= horizon; t++ {
			if t == horizon {
				if err := trace.Append(Record{Device: m, Station: cur, Start: start, End: horizon}); err != nil {
					return nil, err
				}
				break
			}
			next := cur
			if rng.Float64() >= cfg.StayProb {
				nb := neighbors[cur]
				next = nb[rng.Intn(len(nb))]
			}
			if next != cur {
				if err := trace.Append(Record{Device: m, Station: cur, Start: start, End: t}); err != nil {
					return nil, err
				}
				cur, start = next, t
			}
		}
	}
	trace.Sort()
	return trace, nil
}

// nearestNeighbors returns, for every station, the indices of its k nearest
// other stations (fewer when the deployment is smaller than k+1).
func nearestNeighbors(stations []Station, k int) [][]int {
	type distIdx struct {
		d   float64
		idx int
	}
	out := make([][]int, len(stations))
	for i, s := range stations {
		ds := make([]distIdx, 0, len(stations)-1)
		for j, o := range stations {
			if i == j {
				continue
			}
			dx, dy := s.X-o.X, s.Y-o.Y
			ds = append(ds, distIdx{d: dx*dx + dy*dy, idx: j})
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a].d < ds[b].d })
		n := k
		if n > len(ds) {
			n = len(ds)
		}
		nb := make([]int, 0, n)
		for _, di := range ds[:n] {
			nb = append(nb, di.idx)
		}
		if len(nb) == 0 {
			nb = []int{i} // single-station deployment: hop to self
		}
		out[i] = nb
	}
	return out
}
