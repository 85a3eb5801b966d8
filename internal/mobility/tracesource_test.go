package mobility

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// traceFixture builds a generated Markov trace (every device attached from
// time 0, the tracegen shape), its station clustering, the dense BuildSchedule
// lowering, and the same trace serialized in time order.
func traceFixture(t *testing.T, edges, devices, steps int, stepDur int64) (*Trace, []int, *Schedule) {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	stations, err := PlaceStations(rng, 12, PlacementConfig{Width: 100, Height: 100})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := GenerateMarkovTrace(rng, stations, devices, int64(steps)*stepDur, MarkovConfig{StayProb: 0.7, Neighbors: 3})
	if err != nil {
		t.Fatal(err)
	}
	edgeOf, err := ClusterStations(rng, stations, edges)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := BuildSchedule(trace, edgeOf, edges, devices, steps, stepDur)
	if err != nil {
		t.Fatal(err)
	}
	return trace, edgeOf, sched
}

// TestTraceSourceMatchesBuildSchedule: streaming a time-sorted trace file
// reproduces exactly the dense BuildSchedule lowering, in both CSV and NDJSON
// formats — the two paths share recordSteps, and this pins that they cannot
// drift.
func TestTraceSourceMatchesBuildSchedule(t *testing.T) {
	const edges, devices, steps, stepDur = 3, 25, 18, 4
	trace, edgeOf, sched := traceFixture(t, edges, devices, steps, stepDur)
	trace.SortByTime()
	for _, format := range []TraceFormat{TraceCSV, TraceNDJSON} {
		name := "csv"
		write := trace.WriteCSV
		if format == TraceNDJSON {
			name, write = "ndjson", trace.WriteNDJSON
		}
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := write(&buf); err != nil {
				t.Fatal(err)
			}
			src, err := NewTraceSource(&buf, TraceSourceConfig{
				Edges: edges, Devices: devices, Steps: steps, StepDur: stepDur,
				EdgeOfStation: edgeOf, Format: format,
			})
			if err != nil {
				t.Fatal(err)
			}
			rows := walkSource(t, src)
			for step := range rows {
				for m, e := range rows[step] {
					if want := sched.EdgeOf(step, m); e != want {
						t.Fatalf("step %d device %d: streamed %d, dense %d", step, m, e, want)
					}
				}
			}
		})
	}
}

// TestRecordBeforeTimeZeroAttachesNothing: a record that ends before time 0
// holds its station at no step boundary ≥ 0, so neither lowering may attach
// the device there at step 0; the device's first boundary-covering record
// back-fills the leading steps instead.
func TestRecordBeforeTimeZeroAttachesNothing(t *testing.T) {
	const edges, devices, steps, stepDur = 2, 1, 4, 3
	edgeOf := []int{0, 1}
	trace := &Trace{Records: []Record{
		{Device: 0, Station: 1, Start: -10, End: -1},
		{Device: 0, Station: 0, Start: 4, End: 12},
	}}
	sched, err := BuildSchedule(trace, edgeOf, edges, devices, steps, stepDur)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	src, err := NewTraceSource(&buf, TraceSourceConfig{
		Edges: edges, Devices: devices, Steps: steps, StepDur: stepDur,
		EdgeOfStation: edgeOf, Format: TraceCSV,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := walkSource(t, src)
	for step := 0; step < 2; step++ {
		if e := sched.EdgeOf(step, 0); e != 0 {
			t.Errorf("BuildSchedule: step %d on edge %d, want 0", step, e)
		}
		if e := rows[step][0]; e != 0 {
			t.Errorf("TraceSource: step %d on edge %d, want 0", step, e)
		}
	}
}

// TestTraceSourceJumpAndRewind: a forward jump folds all due records and
// reports rebuilt; rewinding a consumed stream is an error.
func TestTraceSourceJumpAndRewind(t *testing.T) {
	const edges, devices, steps, stepDur = 3, 25, 18, 4
	trace, edgeOf, sched := traceFixture(t, edges, devices, steps, stepDur)
	trace.SortByTime()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	src, err := NewTraceSource(&buf, TraceSourceConfig{
		Edges: edges, Devices: devices, Steps: steps, StepDur: stepDur,
		EdgeOfStation: edgeOf, Format: TraceCSV,
	})
	if err != nil {
		t.Fatal(err)
	}
	moves, rebuilt, err := src.AdvanceTo(11)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt || moves != nil {
		t.Fatalf("jump: moves %v rebuilt %v, want nil/true", moves, rebuilt)
	}
	for m, e := range src.Snapshot(nil) {
		if want := sched.EdgeOf(11, m); e != want {
			t.Fatalf("device %d: jumped row %d, dense %d", m, e, want)
		}
	}
	if _, _, err := src.AdvanceTo(4); err == nil {
		t.Fatal("expected rewind error")
	}
	if _, _, err := src.AdvanceTo(steps); err == nil {
		t.Fatal("expected horizon error")
	}
}

// TestTraceSourceUnseenDevicesSitOnEdgeZero pins the documented divergence
// from BuildSchedule's leading-gap back-fill: a device with no record yet is
// on edge 0 until its first record arrives.
func TestTraceSourceUnseenDevicesSitOnEdgeZero(t *testing.T) {
	// Device 1 attaches to station 1 (edge 1) from time 4; device 0 has no
	// records at all.
	csv := "device,station,start,end\n1,1,4,12\n"
	src, err := NewTraceSource(strings.NewReader(csv), TraceSourceConfig{
		Edges: 2, Devices: 2, Steps: 6, StepDur: 2,
		EdgeOfStation: []int{0, 1}, Format: TraceCSV,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := walkSource(t, src)
	for step, want1 := range []int{0, 0, 1, 1, 1, 1} { // firstStep = ceil(4/2) = 2
		if rows[step][0] != 0 {
			t.Fatalf("step %d: recordless device left edge 0", step)
		}
		if rows[step][1] != want1 {
			t.Fatalf("step %d: device 1 on edge %d, want %d", step, rows[step][1], want1)
		}
	}
}

// TestTraceSourceRejectsBadInput: malformed lines, out-of-order starts,
// per-device overlaps and unknown stations all surface as errors with the
// offending line number; records for devices beyond the population are
// skipped, matching BuildSchedule.
func TestTraceSourceRejectsBadInput(t *testing.T) {
	cfg := TraceSourceConfig{
		Edges: 2, Devices: 2, Steps: 4, StepDur: 10,
		EdgeOfStation: []int{0, 1}, Format: TraceCSV,
	}
	build := func(body string) (*TraceSource, error) {
		return NewTraceSource(strings.NewReader(body), cfg)
	}

	bad := []struct {
		name string
		body string
	}{
		{"field count", "0,0,5\n"},
		{"bad number", "0,0,zero,5\n"},
		{"end before start", "0,0,5,3\n"},
		{"negative device", "-1,0,0,5\n"},
		{"unknown station", "0,9,0,5\n"},
		{"overlap", "0,0,0,20\n0,1,10,30\n"},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := build(tt.body); err == nil {
				t.Fatalf("accepted %q", tt.body)
			}
		})
	}

	// Out-of-order starts surface once the second record is scanned.
	src, err := build("0,0,10,12\n1,0,5,8\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.AdvanceTo(1); err == nil || !strings.Contains(err.Error(), "sorted by start") {
		t.Fatalf("out-of-order trace: err %v", err)
	}

	// NDJSON parse errors carry the line number too.
	ndCfg := cfg
	ndCfg.Format = TraceNDJSON
	if _, err := NewTraceSource(strings.NewReader("{not json}\n"), ndCfg); err == nil {
		t.Fatal("accepted malformed NDJSON")
	}

	// Devices beyond the configured population are skipped, not errors.
	src, err = build("9,1,0,40\n")
	if err != nil {
		t.Fatal(err)
	}
	for m, e := range src.Snapshot(nil) {
		if e != 0 {
			t.Fatalf("skipped-device record moved device %d to edge %d", m, e)
		}
	}
}

// TestTraceSourceConfigValidation covers the constructor's config checks.
func TestTraceSourceConfigValidation(t *testing.T) {
	good := TraceSourceConfig{
		Edges: 2, Devices: 2, Steps: 4, StepDur: 10,
		EdgeOfStation: []int{0, 1}, Format: TraceCSV,
	}
	mutate := []struct {
		name string
		f    func(*TraceSourceConfig)
	}{
		{"zero edges", func(c *TraceSourceConfig) { c.Edges = 0 }},
		{"zero devices", func(c *TraceSourceConfig) { c.Devices = 0 }},
		{"zero steps", func(c *TraceSourceConfig) { c.Steps = 0 }},
		{"zero step duration", func(c *TraceSourceConfig) { c.StepDur = 0 }},
		{"empty clustering", func(c *TraceSourceConfig) { c.EdgeOfStation = nil }},
		{"clustering out of range", func(c *TraceSourceConfig) { c.EdgeOfStation = []int{0, 5} }},
		{"unknown format", func(c *TraceSourceConfig) { c.Format = TraceFormat(9) }},
	}
	for _, tt := range mutate {
		t.Run(tt.name, func(t *testing.T) {
			cfg := good
			tt.f(&cfg)
			if _, err := NewTraceSource(strings.NewReader(""), cfg); err == nil {
				t.Fatal("expected config error")
			}
		})
	}
	if _, err := NewTraceSource(strings.NewReader(""), good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
