package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestNilTelemetryZeroAlloc is the disabled-mode contract: every hot-path
// method on a nil *Telemetry (and nil *Trace) must be allocation-free.
func TestNilTelemetryZeroAlloc(t *testing.T) {
	var tel *Telemetry
	allocs := testing.AllocsPerRun(1000, func() {
		start := tel.Now()
		tel.Add(CounterSteps, 1)
		tel.SetGauge(GaugeProbMass, 1.5)
		tel.Observe(HistEdgeMembers, 12)
		tel.ObserveSince(HistDecideNS, start)
		tr := tel.Trace()
		if tr.DecisionActive(3, 0) {
			t.Fatal("nil trace claims active decisions")
		}
		tr.Emit(nil)
	})
	if allocs != 0 {
		t.Fatalf("nil telemetry hot path allocates %.1f per run, want 0", allocs)
	}
	if got := tel.Now(); got != 0 {
		t.Fatalf("nil telemetry Now() = %d, want 0 (no clock read)", got)
	}
}

// TestEnabledCountersZeroAlloc keeps the enabled metrics path (counters,
// gauges, histograms — not tracing) allocation-free too.
func TestEnabledCountersZeroAlloc(t *testing.T) {
	clock := int64(0)
	tel := NewWithClock(func() int64 { clock += 10; return clock })
	allocs := testing.AllocsPerRun(1000, func() {
		start := tel.Now()
		tel.Add(CounterDevicesTrained, 3)
		tel.SetGauge(GaugeAccuracy, 0.7)
		tel.Observe(HistEdgeSampled, 5)
		tel.ObserveSince(HistStepNS, start)
	})
	if allocs != 0 {
		t.Fatalf("enabled metrics path allocates %.1f per run, want 0", allocs)
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	clock := int64(100)
	tel := NewWithClock(func() int64 { return clock })
	tel.Add(CounterSteps, 2)
	tel.Add(CounterSteps, 1)
	tel.SetGauge(GaugeLoss, 2.25)
	tel.Observe(HistEdgeMembers, 0)
	tel.Observe(HistEdgeMembers, 1)
	tel.Observe(HistEdgeMembers, 5)
	tel.Observe(HistEdgeMembers, 8)

	if got := tel.Count(CounterSteps); got != 3 {
		t.Fatalf("CounterSteps = %d, want 3", got)
	}
	if got := tel.GaugeValue(GaugeLoss); got != 2.25 {
		t.Fatalf("GaugeLoss = %v, want 2.25", got)
	}
	s := tel.Snapshot()
	h := s.Histograms["edge_members"]
	if h.Count != 4 || h.Sum != 14 {
		t.Fatalf("edge_members count/sum = %d/%d, want 4/14", h.Count, h.Sum)
	}
	// Small values get exact unit buckets in the log-linear layout:
	// 0 → [0,0]; 1 → [1,1]; 5 → [5,5]; 8 → [8,8].
	want := []HistBucket{{0, 0, 1}, {1, 1, 1}, {5, 5, 1}, {8, 8, 1}}
	if len(h.Buckets) != len(want) {
		t.Fatalf("edge_members buckets = %+v, want %+v", h.Buckets, want)
	}
	for i, b := range want {
		if h.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, h.Buckets[i], b)
		}
	}
}

// TestShardMetrics covers the per-shard surface: SetShardCount sizes the
// slots, phase observations and queue depths land on the right shard,
// out-of-range writes are dropped, and the snapshot lists shards in order
// with one named section per phase.
func TestShardMetrics(t *testing.T) {
	tel := New()
	if got := tel.ShardCount(); got != 0 {
		t.Fatalf("ShardCount before SetShardCount = %d, want 0", got)
	}
	// Out-of-range and disabled writes must be silent no-ops.
	tel.ObserveShardPhase(0, ShardPhaseDecide, 5)
	tel.SetShardQueueDepth(0, 9)

	tel.SetShardCount(3)
	tel.ObserveShardPhase(0, ShardPhaseDecide, 10)
	tel.ObserveShardPhase(0, ShardPhaseDecide, 30)
	tel.ObserveShardPhase(2, ShardPhaseTrain, 100)
	tel.ObserveShardPhase(2, ShardPhaseFinalize, 7)
	tel.ObserveShardPhase(3, ShardPhaseDecide, 999) // out of range: dropped
	tel.ObserveShardPhase(-1, ShardPhaseDecide, 999)
	tel.SetShardQueueDepth(1, 4)
	tel.SetShardQueueDepth(1, 2) // gauge: last value wins
	tel.SetShardQueueDepth(3, 8) // out of range: dropped

	if got := tel.ShardCount(); got != 3 {
		t.Fatalf("ShardCount = %d, want 3", got)
	}
	if got := tel.ShardQueueDepth(1); got != 2 {
		t.Fatalf("ShardQueueDepth(1) = %d, want 2", got)
	}
	if got := tel.ShardQueueDepth(3); got != 0 {
		t.Fatalf("ShardQueueDepth(3) = %d, want 0 (out of range)", got)
	}

	s := tel.Snapshot()
	if len(s.Shards) != 3 {
		t.Fatalf("snapshot has %d shard sections, want 3", len(s.Shards))
	}
	for i, sh := range s.Shards {
		if sh.Shard != i {
			t.Fatalf("shard section %d labelled %d", i, sh.Shard)
		}
	}
	d0 := s.Shards[0].Phases["decide"]
	if d0.Count != 2 || d0.Sum != 40 {
		t.Fatalf("shard 0 decide count/sum = %d/%d, want 2/40", d0.Count, d0.Sum)
	}
	if tr := s.Shards[2].Phases["train"]; tr.Count != 1 || tr.Sum != 100 {
		t.Fatalf("shard 2 train count/sum = %d/%d, want 1/100", tr.Count, tr.Sum)
	}
	if fn := s.Shards[2].Phases["finalize"]; fn.Count != 1 || fn.Sum != 7 {
		t.Fatalf("shard 2 finalize count/sum = %d/%d, want 1/7", fn.Count, fn.Sum)
	}
	if d1 := s.Shards[1].Phases["decide"]; d1.Count != 0 {
		t.Fatalf("shard 1 decide count = %d, want 0", d1.Count)
	}
	if s.Shards[1].QueueDepth != 2 {
		t.Fatalf("shard 1 queue depth = %d, want 2", s.Shards[1].QueueDepth)
	}

	// Same-count SetShardCount keeps observations; a different count resets.
	tel.SetShardCount(3)
	if d0 := tel.Snapshot().Shards[0].Phases["decide"]; d0.Count != 2 {
		t.Fatalf("same-count resize dropped observations: count = %d", d0.Count)
	}
	tel.SetShardCount(2)
	s = tel.Snapshot()
	if len(s.Shards) != 2 {
		t.Fatalf("after resize snapshot has %d shard sections, want 2", len(s.Shards))
	}
	if d0 := s.Shards[0].Phases["decide"]; d0.Count != 0 {
		t.Fatalf("resize kept stale observations: count = %d", d0.Count)
	}
}

// TestShardMetricsZeroAlloc keeps the per-shard hot path (phase observe,
// queue-depth gauge) allocation-free, enabled and disabled alike.
func TestShardMetricsZeroAlloc(t *testing.T) {
	var nilTel *Telemetry
	tel := New()
	tel.SetShardCount(4)
	allocs := testing.AllocsPerRun(1000, func() {
		tel.ObserveShardPhase(2, ShardPhaseTrain, 50)
		tel.SetShardQueueDepth(2, 3)
		nilTel.ObserveShardPhase(0, ShardPhaseDecide, 1)
		nilTel.SetShardQueueDepth(0, 1)
	})
	if allocs != 0 {
		t.Fatalf("shard metrics hot path allocates %.1f per run, want 0", allocs)
	}
}

// TestSnapshotDeterministicJSON pins that two identical sinks marshal to
// identical bytes — map keys sort, so the snapshot is diffable.
func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func() []byte {
		tel := NewWithClock(func() int64 { return 7 })
		tel.Add(CounterEvals, 4)
		tel.SetGauge(GaugeUCBMax, 3.5)
		tel.Observe(HistStepNS, 1000)
		var buf bytes.Buffer
		if err := tel.WriteSnapshot(&buf); err != nil {
			t.Fatalf("WriteSnapshot: %v", err)
		}
		return buf.Bytes()
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Fatalf("snapshots of identical sinks differ:\n%s\nvs\n%s", a, b)
	}
}

func TestDebugServer(t *testing.T) {
	tel := New()
	tel.Add(CounterSteps, 9)
	srv, err := StartDebugServer("127.0.0.1:0", tel)
	if err != nil {
		t.Fatalf("StartDebugServer: %v", err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(body)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/debug/telemetry")), &snap); err != nil {
		t.Fatalf("decode /debug/telemetry: %v", err)
	}
	if snap.Counters["steps"] != 9 {
		t.Fatalf("/debug/telemetry steps = %d, want 9", snap.Counters["steps"])
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected: %.120s", body)
	}
}
