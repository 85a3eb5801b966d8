package mobility

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWaypointTraceCoversAllDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stations, err := PlaceStations(rng, 20, DefaultPlacement())
	if err != nil {
		t.Fatal(err)
	}
	trace, err := GenerateWaypointTrace(rng, stations, 15, 50, DefaultWaypoint())
	if err != nil {
		t.Fatal(err)
	}
	if trace.Devices() != 15 {
		t.Fatalf("trace covers %d devices, want 15", trace.Devices())
	}
	// Per-device records must tile [0, horizon) without gaps or overlaps.
	trace.Sort()
	next := make(map[int]int64)
	for _, r := range trace.Records {
		if r.Start != next[r.Device] {
			t.Fatalf("device %d: record starts at %d, want %d", r.Device, r.Start, next[r.Device])
		}
		next[r.Device] = r.End
	}
	for m, end := range next {
		if end != 50 {
			t.Fatalf("device %d coverage ends at %d, want 50", m, end)
		}
	}
}

func TestMarkovTraceStayProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	stations, err := PlaceStations(rng, 10, PlacementConfig{Width: 100, Height: 100})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := GenerateMarkovTrace(rng, stations, 30, 200, MarkovConfig{StayProb: 0.9, Neighbors: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Expected hops per device ≈ (1-0.9)*199 ≈ 20, so records per device
	// ≈ 21; allow broad tolerance.
	perDevice := float64(len(trace.Records)) / 30
	if perDevice < 10 || perDevice > 35 {
		t.Fatalf("markov hop rate off: %.1f records per device", perDevice)
	}
}

func TestModelConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stations := []Station{{ID: 0, X: 0, Y: 0}}
	if _, err := GenerateWaypointTrace(rng, stations, 1, 10, WaypointConfig{Width: -1}); err == nil {
		t.Fatal("expected invalid waypoint config error")
	}
	if _, err := GenerateWaypointTrace(rng, nil, 1, 10, DefaultWaypoint()); err == nil {
		t.Fatal("expected empty stations error")
	}
	if _, err := GenerateMarkovTrace(rng, stations, 1, 10, MarkovConfig{StayProb: 1.5, Neighbors: 1}); err == nil {
		t.Fatal("expected invalid markov config error")
	}
	if _, err := GenerateMarkovTrace(rng, stations, 0, 10, MarkovConfig{StayProb: 0.95, Neighbors: 4}); err == nil {
		t.Fatal("expected zero devices error")
	}
}

func TestClusterStationsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	stations, err := PlaceStations(rng, 50, DefaultPlacement())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 5, 10} {
		edgeOf, err := ClusterStations(rng, stations, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(edgeOf) != 50 {
			t.Fatalf("k=%d: %d assignments", k, len(edgeOf))
		}
		seen := make([]int, k)
		for _, e := range edgeOf {
			if e < 0 || e >= k {
				t.Fatalf("k=%d: invalid edge %d", k, e)
			}
			seen[e]++
		}
		for e, n := range seen {
			if n == 0 {
				t.Fatalf("k=%d: edge %d empty", k, e)
			}
		}
	}
	if _, err := ClusterStations(rng, stations[:3], 5); err == nil {
		t.Fatal("expected error for k > stations")
	}
	if _, err := ClusterStations(rng, stations, 0); err == nil {
		t.Fatal("expected error for k = 0")
	}
}

func TestClusterStationsIsSpatiallyCoherent(t *testing.T) {
	// Stations in two well-separated groups must be split into exactly
	// those groups by 2-means.
	var stations []Station
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		stations = append(stations, Station{ID: i, X: rng.Float64(), Y: rng.Float64()})
	}
	for i := 10; i < 20; i++ {
		stations = append(stations, Station{ID: i, X: 100 + rng.Float64(), Y: 100 + rng.Float64()})
	}
	edgeOf, err := ClusterStations(rng, stations, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if edgeOf[i] != edgeOf[0] {
			t.Fatalf("left group split: station %d", i)
		}
	}
	for i := 11; i < 20; i++ {
		if edgeOf[i] != edgeOf[10] {
			t.Fatalf("right group split: station %d", i)
		}
	}
	if edgeOf[0] == edgeOf[10] {
		t.Fatal("groups merged")
	}
}

func TestBuildScheduleFromHandmadeTrace(t *testing.T) {
	var tr Trace
	// Station 0,1 → edge 0; station 2 → edge 1.
	edgeOfStation := []int{0, 0, 1}
	// Device 0: station 0 for [0,3), station 2 for [3,6).
	// Device 1: station 1 for [2,6) (leading gap back-filled).
	for _, r := range []Record{
		{Device: 0, Station: 0, Start: 0, End: 3},
		{Device: 0, Station: 2, Start: 3, End: 6},
		{Device: 1, Station: 1, Start: 2, End: 6},
	} {
		if err := tr.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s, err := BuildSchedule(&tr, edgeOfStation, 2, 2, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantDev0 := []int{0, 0, 0, 1, 1, 1}
	for tt, want := range wantDev0 {
		if got := s.EdgeOf(tt, 0); got != want {
			t.Fatalf("device 0 step %d: edge %d, want %d", tt, got, want)
		}
	}
	for tt := 0; tt < 6; tt++ {
		if got := s.EdgeOf(tt, 1); got != 0 {
			t.Fatalf("device 1 step %d: edge %d, want 0", tt, got)
		}
	}
	members := s.MembersAt(4, 1)
	if len(members) != 1 || members[0] != 0 {
		t.Fatalf("MembersAt(4,1) = %v", members)
	}
}

func TestBuildScheduleErrors(t *testing.T) {
	var tr Trace
	if err := tr.Append(Record{Device: 0, Station: 0, Start: 0, End: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSchedule(&tr, []int{0}, 1, 2, 5, 1); err == nil {
		t.Fatal("expected error: device 1 has no records")
	}
	if _, err := BuildSchedule(&tr, []int{0}, 1, 1, 5, 0); err == nil {
		t.Fatal("expected error: zero step duration")
	}
	var tr2 Trace
	if err := tr2.Append(Record{Device: 0, Station: 9, Start: 0, End: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSchedule(&tr2, []int{0}, 1, 1, 5, 1); err == nil {
		t.Fatal("expected error: station outside clustering")
	}
}

func TestGenerateScheduleEndToEnd(t *testing.T) {
	s, err := GenerateSchedule(11, 5, 20, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Edges != 5 || s.Devices != 20 || s.Steps != 40 {
		t.Fatalf("schedule dims %d/%d/%d", s.Edges, s.Devices, s.Steps)
	}
	// Mobility must actually move devices across edges, but not teleport
	// them every step.
	rate := s.TransitionRate()
	if rate <= 0 || rate > 0.5 {
		t.Fatalf("transition rate %v outside (0, 0.5]", rate)
	}
	occ := s.EdgeOccupancy()
	total := 0.0
	for _, o := range occ {
		total += o
	}
	if total < 19.99 || total > 20.01 {
		t.Fatalf("occupancy sums to %v, want 20", total)
	}
}

func TestGenerateScheduleDeterministic(t *testing.T) {
	a, err := GenerateSchedule(99, 3, 10, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSchedule(99, 3, 10, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 20; tt++ {
		for m := 0; m < 10; m++ {
			if a.EdgeOf(tt, m) != b.EdgeOf(tt, m) {
				t.Fatalf("schedules differ at t=%d m=%d", tt, m)
			}
		}
	}
}

// Property: every schedule from the end-to-end generator satisfies the
// partition property of Eq. (1) — MembersAt over all edges partitions the
// device set at every step.
func TestSchedulePartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		edges := 2 + int(uint(seed)%4)
		s, err := GenerateSchedule(seed, edges, 8, 10, 2)
		if err != nil {
			return false
		}
		for tt := 0; tt < s.Steps; tt++ {
			seen := make(map[int]bool)
			for n := 0; n < s.Edges; n++ {
				for _, m := range s.MembersAt(tt, n) {
					if seen[m] {
						return false // device in two edges
					}
					seen[m] = true
				}
			}
			if len(seen) != s.Devices {
				return false // device missing
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
