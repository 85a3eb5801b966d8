package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestScaleBenchContract runs the scale benchmark's quick preset and checks
// the claims BENCH_scale.json makes: every row of a cell is the same run of
// hfl.Engine (RunScaleBench fails otherwise — bit-identical global model and
// per-step sampled counts across dense/stream × shard counts), streaming
// mobility keeps less resident than the dense matrix, every row carries a
// phase budget that fits inside its step, and the payload round-trips.
func TestScaleBenchContract(t *testing.T) {
	cfg := ScaleBenchQuickPreset()
	r, err := RunScaleBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cfg.Cells) * 2 * len(cfg.Shards); len(r.Rows) != want {
		t.Fatalf("%d rows, want %d (cells × {dense, stream} × shards)", len(r.Rows), want)
	}
	type cellKey struct{ devices, edges int }
	dense := map[cellKey]int64{}
	for i, row := range r.Rows {
		key := cellKey{row.Devices, row.Edges}
		first := r.Rows[i-i%(2*len(cfg.Shards))]
		if row.SampledPerStep <= 0 || math.Float64bits(row.SampledPerStep) != math.Float64bits(first.SampledPerStep) {
			t.Fatalf("row %+v: sampled/step differs from the cell's first row (%v)", row, first.SampledPerStep)
		}
		if row.Shards != cfg.Shards[i%len(cfg.Shards)] {
			t.Fatalf("row %+v: shard count, want %d", row, cfg.Shards[i%len(cfg.Shards)])
		}
		if row.DecideNs <= 0 || row.TrainNs <= 0 || row.AggregateNs <= 0 ||
			row.StepNs < row.DecideNs+row.TrainNs+row.AggregateNs {
			t.Fatalf("row %+v: phase budget does not fit inside the step", row)
		}
		if row.AllocsPerStep <= 0 || row.MobilityResidentBytes <= 0 {
			t.Fatalf("row %+v: nothing measured", row)
		}
		switch row.Mobility {
		case "dense":
			dense[key] = row.MobilityResidentBytes
		case "stream":
			if row.MobilityResidentBytes >= dense[key] {
				t.Fatalf("row %+v: streaming plane holds %d B, dense %d B", row, row.MobilityResidentBytes, dense[key])
			}
		default:
			t.Fatalf("row %+v: unknown mobility plane", row)
		}
	}

	var buf bytes.Buffer
	if err := r.WriteScaleBenchJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ScaleBenchResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("BENCH_scale.json payload does not round-trip: %v", err)
	}
	if len(back.Rows) != len(r.Rows) || back.Rows[0] != r.Rows[0] {
		t.Fatalf("JSON round-trip changed rows: %+v != %+v", back.Rows[0], r.Rows[0])
	}
}

// TestTelemetryBenchContract runs the telemetry benchmark's quick preset:
// all five tiers end on the off tier's bits (RunTelemetryBench fails
// otherwise), the trace tier emits events and the scrape tier is scraped.
func TestTelemetryBenchContract(t *testing.T) {
	r, err := RunTelemetryBench(TelemetryBenchQuickPreset())
	if err != nil {
		t.Fatal(err)
	}
	modes := []string{"off", "metrics", "spans", "trace", "scrape"}
	if len(r.Rows) != len(modes) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(modes))
	}
	for i, row := range r.Rows {
		if row.Mode != modes[i] || row.WallNs <= 0 || math.Float64bits(row.SampledPerStep) != math.Float64bits(r.Rows[0].SampledPerStep) {
			t.Fatalf("row %d malformed: %+v", i, row)
		}
		if (row.TraceEvents > 0) != (row.Mode == "trace") || (row.Scrapes > 0) != (row.Mode == "scrape") {
			t.Fatalf("row %+v: trace events / scrapes on the wrong tier", row)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteTelemetryBenchJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back TelemetryBenchResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil || len(back.Rows) != len(r.Rows) {
		t.Fatalf("BENCH_telemetry.json payload does not round-trip: %v", err)
	}
}
