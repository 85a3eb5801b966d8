package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestCommBenchContract runs the wire-format benchmark at a reduced step
// budget and checks the claims BENCH_comm.json makes: the lossless delta
// format reproduces the raw trajectory bit for bit while moving fewer
// measured bytes over the same protocol, the protocol moves a bounded number
// of model messages — per host and cloud round, not per device or step — and
// every row/micro entry is well-formed.
func TestCommBenchContract(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed deployments per scheme are not short")
	}
	cfg := CommBenchPreset()
	cfg.Steps = 10
	r, err := RunCommBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(r.Rows))
	}
	rows := map[string]CommBenchRow{}
	for _, row := range r.Rows {
		rows[row.Scheme] = row
		if row.TotalBytes <= 0 || row.BytesPerStep <= 0 {
			t.Fatalf("row %s has no measured traffic: %+v", row.Scheme, row)
		}
	}
	raw, delta := rows["raw"], rows["delta"]
	if !raw.BitIdenticalToRaw || raw.ReductionVsRaw != 1 {
		t.Fatalf("raw reference row malformed: %+v", raw)
	}
	if !delta.BitIdenticalToRaw {
		t.Fatal("lossless delta run is not bit-identical to raw")
	}
	if delta.ReductionVsRaw <= 1 {
		t.Fatalf("delta moved %.2fx raw's bytes, want fewer", 1/delta.ReductionVsRaw)
	}

	// The protocol's structural savings, checked on raw, whose every model
	// message is a full 8 B/param vector. On one host: a base goes down once
	// per global an edge installs (between cloud rounds the host advances it
	// in place), and at most two vectors come up per edge and cloud round
	// (the advanced base, fetched back, and one summed update) — none per
	// device, none between rounds.
	if r.Hosts != 1 {
		t.Fatalf("bench runs %d hosts; the bounds below are for one", r.Hosts)
	}
	rounds := int64(cfg.Steps / cfg.CloudInterval)
	globals := int64((cfg.Steps + cfg.CloudInterval - 1) / cfg.CloudInterval)
	edges := int64(r.Edges)
	if raw.Uploads != delta.Uploads || raw.Downloads != delta.Downloads || raw.CloudTransfers != delta.CloudTransfers {
		t.Fatalf("raw and delta ran different message sequences: raw %+v, delta %+v", raw, delta)
	}
	if raw.Downloads > edges*globals || raw.Uploads > 2*edges*rounds || raw.CloudTransfers > edges*(globals+rounds) {
		t.Fatalf("raw moved %d downloads, %d uploads, %d cloud transfers; bounds %d, %d, %d",
			raw.Downloads, raw.Uploads, raw.CloudTransfers, edges*globals, 2*edges*rounds, edges*(globals+rounds))
	}
	// Those messages are nearly all of raw's bytes: control traffic
	// (estimates, member lists, RPC framing) stays under a tenth on top.
	messages := raw.Uploads + raw.Downloads + raw.CloudTransfers
	if limit := float64(8*r.Params) * float64(messages) * 1.1; float64(raw.TotalBytes) > limit {
		t.Fatalf("raw moved %d B for %d model messages of %d params, over %.0f B", raw.TotalBytes, messages, r.Params, limit)
	}
	for _, name := range []string{"float32", "int8"} {
		if rows[name].Lossless {
			t.Fatalf("%s marked lossless", name)
		}
		if rows[name].FinalAccuracy <= 0 {
			t.Fatalf("%s run did not evaluate: %+v", name, rows[name])
		}
	}
	if len(r.Micro) != 4 {
		t.Fatalf("%d micro rows, want 4", len(r.Micro))
	}
	for _, m := range r.Micro {
		if m.EncodedBytes <= 0 || m.Ratio <= 0 {
			t.Fatalf("micro row %s malformed: %+v", m.Scheme, m)
		}
	}

	var buf bytes.Buffer
	if err := r.WriteCommBenchJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back CommBenchResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("BENCH_comm.json payload does not round-trip: %v", err)
	}
	if len(back.Rows) != len(r.Rows) {
		t.Fatalf("JSON round-trip lost rows: %d != %d", len(back.Rows), len(r.Rows))
	}
}
