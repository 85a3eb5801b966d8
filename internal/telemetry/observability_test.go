package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
)

// TestHistPercentileEdgeCases pins the quantile semantics of the
// log-linear histogram: empty, single observation, exact-bucket values,
// bucket-boundary values, and the saturating top bucket.
func TestHistPercentileEdgeCases(t *testing.T) {
	quantiles := func(h *histogram) (p50, p90, p99, p999 int64) {
		hs := snapshotHist(h)
		return hs.P50, hs.P90, hs.P99, hs.P999
	}

	t.Run("empty", func(t *testing.T) {
		var h histogram
		p50, p90, p99, p999 := quantiles(&h)
		if p50 != 0 || p90 != 0 || p99 != 0 || p999 != 0 {
			t.Fatalf("empty histogram quantiles = %d/%d/%d/%d, want all 0", p50, p90, p99, p999)
		}
	})

	t.Run("single observation", func(t *testing.T) {
		var h histogram
		h.observe(17) // exact unit bucket: every quantile is the value itself
		p50, p90, p99, p999 := quantiles(&h)
		if p50 != 17 || p90 != 17 || p99 != 17 || p999 != 17 {
			t.Fatalf("single-observation quantiles = %d/%d/%d/%d, want all 17", p50, p90, p99, p999)
		}
	})

	t.Run("uniform 1..1000 within bucket resolution", func(t *testing.T) {
		var h histogram
		for v := int64(1); v <= 1000; v++ {
			h.observe(v)
		}
		p50, p90, p99, p999 := quantiles(&h)
		check := func(name string, got, want int64) {
			// Bucket resolution is 1/16 of an octave: 6.25% plus rounding up.
			if got < want || float64(got) > float64(want)*1.07 {
				t.Fatalf("%s = %d, want within [%d, %d·1.07]", name, got, want, want)
			}
		}
		check("p50", p50, 500)
		check("p90", p90, 900)
		check("p99", p99, 990)
		check("p999", p999, 999)
	})

	t.Run("bucket boundaries", func(t *testing.T) {
		// 31 is the last exact bucket; 32 opens the first sub-bucketed
		// octave; 2^k and 2^k-1 must land in different buckets.
		cases := []struct {
			v      int64
			lo, hi int64
		}{
			{0, 0, 0},
			{1, 1, 1},
			{31, 31, 31},
			{32, 32, 33},
			{63, 62, 63},
			{64, 64, 67},
			{1 << 20, 1 << 20, 1<<20 + (1<<16 - 1)},
		}
		for _, c := range cases {
			idx := histBucketIndex(c.v)
			lo, hi := histBucketBounds(idx)
			if lo != c.lo || hi != c.hi {
				t.Fatalf("bounds(bucket(%d)) = [%d,%d], want [%d,%d]", c.v, lo, hi, c.lo, c.hi)
			}
			if c.v < lo || c.v > hi {
				t.Fatalf("value %d outside its own bucket [%d,%d]", c.v, lo, hi)
			}
		}
	})

	t.Run("overflow saturates top bucket", func(t *testing.T) {
		var h histogram
		h.observe(math.MaxInt64)
		h.observe(math.MaxInt64 - 1)
		idx := histBucketIndex(math.MaxInt64)
		if idx != histBuckets-1 {
			t.Fatalf("bucket(MaxInt64) = %d, want top bucket %d", idx, histBuckets-1)
		}
		_, hi := histBucketBounds(idx)
		if hi != math.MaxInt64 {
			t.Fatalf("top bucket hi = %d, want MaxInt64", hi)
		}
		p50, _, _, p999 := quantiles(&h)
		if p50 <= 0 || p999 != math.MaxInt64 {
			t.Fatalf("saturated quantiles p50=%d p999=%d; p999 must clamp to MaxInt64 without overflow", p50, p999)
		}
	})
}

// TestHistBucketRoundTrip sweeps value magnitudes and checks that every
// value lands inside the bounds its bucket reports — the invariant the
// quantile interpolation rests on.
func TestHistBucketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		v := int64(1) << uint(rng.Intn(62))
		v += rng.Int63n(v + 1)
		idx := histBucketIndex(v)
		lo, hi := histBucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d in bucket %d with bounds [%d,%d]", v, idx, lo, hi)
		}
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucket index %d out of range for %d", idx, v)
		}
	}
}

// TestAppendEventMatchesEncodingJSON pins the pooled trace encoder to
// encoding/json byte for byte — the property that keeps committed golden
// traces valid across the encoder swap. It covers every event type,
// omitempty fields present and absent, nil vs empty slices, float
// exponent-format branches, and string escaping (quotes, control chars,
// HTML characters, invalid UTF-8, U+2028/U+2029).
func TestAppendEventMatchesEncodingJSON(t *testing.T) {
	events := []*Event{
		{Type: EventRun, Step: 0, Run: &RunEvent{Strategy: "mach", Seed: 21, Devices: 12, Edges: 3, Steps: 12, Capacity: 0.3, Every: 1}},
		{Type: EventRun, Step: 0, Run: &RunEvent{Strategy: `we<i&rd">`, Seed: -9, Devices: 1, Edges: 1, Steps: 1, Capacity: 1e-9, Every: 2, MaxEdges: 4}},
		{Type: EventRun, Step: 0, Run: &RunEvent{Strategy: "tab\tnl\nctl\x01\u2028\u2029bad\xff", Capacity: 12345678901234567890123.0, Every: 1}},
		{Type: EventDecision, Step: 3, Decision: &DecisionEvent{
			Edge:      2,
			Members:   []int{5, 9, 11},
			Estimates: []float64{0.5, 0.25, 1e-7},
			Probs:     []float64{0.1, 0.9999999999999999, 1},
			Coins:     []float64{0.6046602879796196, 0.9405090880450124, 0.6645600532184904},
			Sampled:   []int{9},
			Dropped:   []int{11},
		}},
		{Type: EventDecision, Step: 4, Decision: &DecisionEvent{
			Edge:    0,
			Members: []int{},
			Probs:   []float64{},
			Coins:   nil, // nil non-omitempty slice encodes as null
			Sampled: []int{},
		}},
		{Type: EventPhase, Step: 5, Phase: &PhaseEvent{Name: "decide", NS: 12345}},
		{Type: EventPhase, Step: 5, Phase: &PhaseEvent{Name: "train", NS: 0, Shard: 2}},
		{Type: EventEval, Step: 6, Eval: &EvalEvent{Accuracy: 0.9125, Loss: 0.287349587}},
		{Type: EventEval, Step: 7, Eval: &EvalEvent{Accuracy: 0, Loss: 1e21}},
		{Type: EventEstimator, Step: 8, Estimator: &EstimatorEvent{Devices: 100, NeverPulled: 3, TotalPulls: 970, MaxPulls: 40}},
		{Type: EventDone, Step: 9, Done: &DoneEvent{StepsRun: 12, TotalSampled: 120, FinalAccuracy: 0.75}},
	}
	// Fuzz the float paths with seeded values across magnitudes.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		scale := math.Pow(10, float64(rng.Intn(50)-25))
		events = append(events, &Event{Type: EventDecision, Step: i, Decision: &DecisionEvent{
			Edge:    i,
			Members: []int{i},
			Probs:   []float64{rng.Float64() * scale},
			Coins:   []float64{rng.NormFloat64() * scale},
			Sampled: []int{},
		}})
	}

	// Pass 1 with no memo, pass 2 and 3 sharing one memo, so repeated values
	// take the cache-hit path: the memo must replay identical bytes.
	var buf []byte
	memo := new(floatMemo)
	for pass, m := range []*floatMemo{nil, memo, memo} {
		for i, ev := range events {
			want, err := json.Marshal(ev)
			if err != nil {
				t.Fatalf("event %d: json.Marshal: %v", i, err)
			}
			buf, err = appendEvent(buf[:0], ev, m)
			if err != nil {
				t.Fatalf("pass %d event %d: appendEvent: %v", pass, i, err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("pass %d event %d: encoder mismatch\n got: %s\nwant: %s", pass, i, buf, want)
			}
		}
	}

	// NaN/Inf must be rejected like encoding/json rejects them.
	bad := &Event{Type: EventEval, Step: 1, Eval: &EvalEvent{Accuracy: math.NaN()}}
	if _, err := appendEvent(buf[:0], bad, nil); err == nil {
		t.Fatal("appendEvent accepted NaN; encoding/json would have errored")
	}
}

// TestTraceEmitZeroAllocSteadyState verifies the satellite's allocation
// goal: once the scratch buffer has grown, emitting a decision event does
// not allocate.
func TestTraceEmitZeroAllocSteadyState(t *testing.T) {
	tr := NewTrace(io.Discard, TraceConfig{})
	ev := &Event{Type: EventDecision, Step: 1, Decision: &DecisionEvent{
		Edge:    1,
		Members: []int{1, 2, 3, 4},
		Probs:   []float64{0.25, 0.5, 0.75, 1},
		Coins:   []float64{0.1, 0.2, 0.3, 0.4},
		Sampled: []int{2, 3},
	}}
	tr.Emit(ev) // warm the buffer
	if allocs := testing.AllocsPerRun(100, func() { tr.Emit(ev) }); allocs > 0 {
		t.Fatalf("Trace.Emit steady state allocates %.1f times per event, want 0", allocs)
	}
}

// TestSpanRecording covers the span subsystem: deterministic IDs, ring
// contents, per-kind latency histograms in the snapshot, and parent
// propagation.
func TestSpanRecording(t *testing.T) {
	clock := int64(1000)
	tel := NewWithClock(func() int64 { clock += 10; return clock })
	if tel.Spans() != nil {
		t.Fatal("spans enabled before EnableSpans")
	}
	tel.EnableSpans(true)
	if tel.Spans() == nil {
		t.Fatal("spans not enabled after EnableSpans(true)")
	}

	rootID := DeriveSpanID(SpanStep, 7, -1, -1)
	root := tel.StartSpan(SpanStep, 0, 7, -1, -1)
	child := tel.StartSpan(SpanRPCEdgeStep, rootID, 7, 2, -1)
	child.End()
	root.End()
	tel.RecordSpan(SpanEval, rootID, 7, -1, -1, 100, 250)

	spans := tel.Spans()
	if len(spans) != 3 {
		t.Fatalf("Spans() returned %d records, want 3", len(spans))
	}
	if spans[1].ID != uint64(rootID) {
		t.Fatalf("root span = %+v, want ID DeriveSpanID %d", spans[1], rootID)
	}
	if spans[0].Kind != "rpc_edge_step" || spans[0].Parent != uint64(rootID) {
		t.Fatalf("child span = %+v, want kind rpc_edge_step with parent %d", spans[0], rootID)
	}
	if spans[2].Kind != "eval" || spans[2].DurNS != 150 {
		t.Fatalf("recorded span = %+v, want eval with dur 150", spans[2])
	}

	s := tel.Snapshot()
	if hs, ok := s.Histograms["span_eval_ns"]; !ok || hs.Count != 1 || hs.Sum != 150 {
		t.Fatalf("span_eval_ns = %+v (present=%v), want count 1 sum 150", s.Histograms["span_eval_ns"], ok)
	}
	if _, ok := s.Histograms["span_train_ns"]; ok {
		t.Fatal("unobserved span kind leaked an empty histogram into the snapshot")
	}

	// Same dimensions, same ID — across sinks and processes.
	if uint64(DeriveSpanID(SpanRPCEdgeStep, 7, 2, -1)) != spans[0].ID {
		t.Fatal("DeriveSpanID is not a pure function of its inputs")
	}

	tel.EnableSpans(false)
	if got := tel.Spans(); got != nil {
		t.Fatalf("Spans() after disable = %v, want nil", got)
	}
}

// TestSpanDisabledZeroAlloc extends the nil-sink contract to spans: with
// spans off (nil sink or enabled sink without EnableSpans), StartSpan/End/
// RecordSpan allocate nothing and never read the clock.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	var nilTel *Telemetry
	clockReads := 0
	tel := NewWithClock(func() int64 { clockReads++; return int64(clockReads) })

	allocs := testing.AllocsPerRun(1000, func() {
		sp := nilTel.StartSpan(SpanStep, 0, 1, 2, 3)
		sp.End()
		nilTel.RecordSpan(SpanEval, 0, 1, 2, 3, 0, 10)

		sp2 := tel.StartSpan(SpanStep, 0, 1, 2, 3)
		sp2.End()
		tel.RecordSpan(SpanEval, 0, 1, 2, 3, 0, 10)
	})
	if allocs > 0 {
		t.Fatalf("disabled span path allocates %.1f times per op, want 0", allocs)
	}
	if clockReads != 0 {
		t.Fatalf("disabled span path read the clock %d times, want 0", clockReads)
	}
}

// TestWritePrometheus checks the exposition format: family heads, counter
// and gauge samples, summary quantiles, shard labels, and determinism.
func TestWritePrometheus(t *testing.T) {
	tel := NewWithClock(func() int64 { return 0 })
	tel.Add(CounterSteps, 9)
	tel.SetGauge(GaugeAccuracy, 0.875)
	tel.Observe(HistStepNS, 100)
	tel.Observe(HistStepNS, 200)
	tel.SetShardCount(2)
	tel.ObserveShardPhase(1, ShardPhaseDecide, 50)
	tel.SetShardQueueDepth(1, 4)

	var a, b bytes.Buffer
	if err := WritePrometheus(&a, tel.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, tel.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WritePrometheus output is not deterministic across identical snapshots")
	}
	out := a.String()
	wants := []string{
		"# TYPE mach_steps counter\nmach_steps 9\n",
		"# TYPE mach_accuracy gauge\nmach_accuracy 0.875\n",
		"# TYPE mach_step_ns summary\n",
		`mach_step_ns{quantile="0.99"}`,
		"mach_step_ns_sum 300\n",
		"mach_step_ns_count 2\n",
		`mach_shard_phase_ns{shard="1",phase="decide",quantile="0.5"}`,
		`mach_shard_phase_ns_count{shard="1",phase="decide"} 1`,
		`mach_shard_queue_depth{shard="1"} 4`,
	}
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Fatalf("exposition missing %q:\n%s", w, out)
		}
	}
}

// TestSnapshotDiffGolden pins the full text output of WriteSnapshotDiff —
// the surface `machtop diff` prints — for a crafted pair of snapshots with
// a latency regression, a byte-count regression, an accuracy drop, an
// improvement, and an unchanged metric.
func TestSnapshotDiffGolden(t *testing.T) {
	oldS := &Snapshot{
		Counters: map[string]int64{"steps": 30, "cloud_bytes": 1000000},
		Gauges:   map[string]float64{"accuracy": 0.90, "loss": 0.40},
		Histograms: map[string]HistSnapshot{
			"step_ns": {Count: 30, Sum: 3000, Mean: 100, P50: 90, P99: 200},
		},
	}
	newS := &Snapshot{
		Counters: map[string]int64{"steps": 30, "cloud_bytes": 1500000},
		Gauges:   map[string]float64{"accuracy": 0.72, "loss": 0.38},
		Histograms: map[string]HistSnapshot{
			"step_ns": {Count: 30, Sum: 9000, Mean: 300, P50: 280, P99: 500},
		},
	}

	deltas := DiffSnapshots(oldS, newS, DiffOptions{ThresholdPct: 10})
	if got := Regressions(deltas); got != 4 {
		t.Fatalf("Regressions = %d, want 4 (bytes, hist mean, hist p99, accuracy)", got)
	}

	var b bytes.Buffer
	if err := WriteSnapshotDiff(&b, deltas); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"metric                          old             new      delta",
		"counter/cloud_bytes         1000000         1500000     +50.0%  !! REGRESSION",
		"gauge/accuracy                  0.9            0.72     -20.0%  !! REGRESSION",
		"gauge/loss                      0.4            0.38      -5.0%",
		"hist/step_ns.mean               100             300    +200.0%  !! REGRESSION",
		"hist/step_ns.p99                200             500    +150.0%  !! REGRESSION",
		"5 metric(s) changed, 4 regression(s)",
		"",
	}, "\n")
	if b.String() != want {
		t.Fatalf("snapshot diff output mismatch\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestHealthAndBuildEndpoints exercises the new debug-server surface:
// /metrics well-formedness, /healthz always-ok, /readyz flipping with
// SetReady, /debug/buildinfo, and /debug/spans.
func TestHealthAndBuildEndpoints(t *testing.T) {
	tel := New()
	tel.Add(CounterSteps, 3)
	tel.EnableSpans(true)
	sp := tel.StartSpan(SpanStep, 0, 1, -1, -1)
	sp.End()

	srv, err := StartDebugServer("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //machlint:allow errdrop test teardown; the listener dies with the process

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close() //machlint:allow errdrop test teardown; body already read
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := get("/readyz"); code != 503 || body != "starting\n" {
		t.Fatalf("/readyz before SetReady = %d %q, want 503 starting", code, body)
	}
	srv.SetReady(true)
	if code, body := get("/readyz"); code != 200 || body != "ok\n" {
		t.Fatalf("/readyz after SetReady = %d %q, want 200 ok", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "mach_steps 3") {
		t.Fatalf("/metrics = %d, missing mach_steps 3:\n%s", code, body)
	}
	if code, body := get("/debug/buildinfo"); code != 200 || !strings.Contains(body, "github.com/mach-fl/mach") {
		t.Fatalf("/debug/buildinfo = %d, missing module path:\n%s", code, body)
	}
	if code, body := get("/debug/spans"); code != 200 || !strings.Contains(body, `"kind": "step"`) {
		t.Fatalf("/debug/spans = %d, missing step span:\n%s", code, body)
	}
	if v := BuildVersion(); v == "" {
		t.Fatal("BuildVersion returned empty string")
	}
}
