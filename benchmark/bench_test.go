package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// requireExactly fails unless the result's metrics are exactly the spec's.
func requireExactly(t *testing.T, res runResult, defs []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("got %d metrics, spec names %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s has unit %q, spec says %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// TestWorkloadsProduceTheSpec runs every workload at smoke size, timed and
// traced, and checks each run reports the metrics BENCHMARK.json names — all
// of them and no other — with every correctness check passing.
func TestWorkloadsProduceTheSpec(t *testing.T) {
	sp := testSpec(t)
	small := workloads(true)
	if len(small) != len(sp.Workloads) {
		t.Fatalf("%d workloads, spec names %d", len(small), len(sp.Workloads))
	}
	for i, w := range small {
		if w.name != sp.Workloads[i].Name {
			t.Errorf("workload %d is %s, spec says %s", i, w.name, sp.Workloads[i].Name)
		}
		t.Run(w.name, func(t *testing.T) {
			timed, err := w.timed(io.Discard, sp, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			requireExactly(t, timed, sp.EndToEnd)
			for name, m := range timed.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			var log bytes.Buffer
			dir := t.TempDir()
			traced, err := w.tracedRun(&log, sp, 7, 0, time.Millisecond, dir)
			if err != nil {
				t.Fatal(err)
			}
			requireExactly(t, traced, sp.PerLayer)
			if !timed.Correct || !traced.Correct {
				t.Errorf("checks failed: timed %d/%d, traced %d/%d\n%s",
					timed.Failed, timed.Attempted, traced.Failed, traced.Attempted, log.String())
			}
			for _, f := range []string{w.name + ".spans.jsonl", w.name + ".snapshot.json"} {
				if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
					t.Errorf("trace artefact %s not written: %v", f, err)
				}
			}
		})
	}
}

func TestSpecNames(t *testing.T) {
	sp := testSpec(t)
	ok := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, group := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range group {
			if !ok.MatchString(m.Name) {
				t.Errorf("bad metric name %q", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric name %q used twice", m.Name)
			}
			seen[m.Name] = true
			hasSetup = hasSetup || m.Name == "setup_s"
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s has bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("spec has no setup_s metric")
	}
	for _, w := range workloads(false) {
		if _, err := workloadByName(w.name); err != nil {
			t.Error(err)
		}
	}
}

// TestSelfTime checks the self-time arithmetic on a hand-built tree:
//
//	root  [0,100]
//	  a   [10,40]
//	    a1 [15,25]
//	  b   [30,60]   overlaps a on [30,40]: counted once
//	  c   [90,120]  clipped to root at 100
func TestSelfTime(t *testing.T) {
	r := &recorder{run: "t"}
	root := r.add("root", -1, 0, 100)
	a := r.add("a", root, 10, 40)
	r.add("a1", a, 15, 25)
	r.add("b", root, 30, 60)
	r.add("c", root, 90, 120)
	want := []int64{100 - (30 + 20 + 10), 30 - 10, 10, 30, 30}
	got := selfTimes(r.spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", r.spans[i].Name, got[i], want[i])
		}
	}
	if by := selfByName(r.spans); by["root"] != 40 || by["a1"] != 10 {
		t.Errorf("selfByName = %v", by)
	}
	var nilRec *recorder
	if id := nilRec.start("x", -1); id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
	nilRec.end(-1)
}

// synthetic builds a result file with one workload and the given values.
func synthetic(sp *spec, cpuMS, updatesPerS, failedShare float64) *fileResult {
	r := &fileResult{Workloads: map[string]workloadResult{}}
	for _, load := range sp.Workloads {
		m := map[string]metricValue{}
		for _, d := range sp.EndToEnd {
			m[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		}
		m["cpu_ms_per_device_update"] = metricValue{Value: cpuMS, Unit: "ms"}
		m["device_updates_per_s"] = metricValue{Value: updatesPerS, Unit: "1/s"}
		r.Workloads[load.Name] = workloadResult{Timed: runResult{Metrics: m}, FailedShare: failedShare}
	}
	return r
}

func TestCompare(t *testing.T) {
	sp := testSpec(t)
	base := synthetic(sp, 10, 5, 0)
	n := len(sp.Workloads)
	cases := []struct {
		name  string
		cand  *fileResult
		agree bool
		bad   int
	}{
		{"identical", synthetic(sp, 10, 5, 0), false, 0},
		{"inside bound", synthetic(sp, 11, 4.5, 0), false, 0},
		{"more cpu, fewer updates", synthetic(sp, 13, 3.5, 0), false, 2 * n},
		{"better is never a regression", synthetic(sp, 5, 10, 0), false, 0},
		{"better still disagrees", synthetic(sp, 5, 10, 0), true, 2 * n},
		{"failed share rose", synthetic(sp, 10, 5, 0.1), false, n},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if bad := compareResults(&out, sp, base, c.cand, c.agree); bad != c.bad {
			t.Errorf("%s: %d rows out of bounds, want %d\n%s", c.name, bad, c.bad, out.String())
		}
		if rows := strings.Count(out.String(), "\n"); rows != n*(len(sp.EndToEnd)+1) {
			t.Errorf("%s: %d rows, want one per (workload, metric)", c.name, rows)
		}
	}
}

func TestParseResult(t *testing.T) {
	good := "noise\n" + `{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}` + "\n"
	if r, err := parseResult([]byte(good)); err != nil || !r.Correct || r.Metrics["setup_s"].Value != 1.5 {
		t.Errorf("parseResult(good) = %+v, %v", r, err)
	}
	for _, bad := range []string{"", "not json", `{"correct":true}`, `{"correct":true,"attempted":1,"failed":2,"metrics":{"a":{"value":1,"unit":"s"}}}`, `{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}`} {
		if _, err := parseResult([]byte(bad)); err == nil {
			t.Errorf("parseResult(%q) accepted a malformed result", bad)
		}
	}
}

// TestRunChildFailures covers the parent's failure accounting: a child that
// exits non-zero, one that overruns its time-out and one that prints no
// result are all errors (recorded by runAll as failed_share = 1).
func TestRunChildFailures(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh to play the child")
	}
	for name, script := range map[string]string{
		"non-zero exit": "exit 3",
		"time-out":      "exec sleep 5",
		"no result":     "echo hello",
	} {
		if _, err := runChild(sh, 200*time.Millisecond, "-c", script); err == nil {
			t.Errorf("%s: runChild reported success", name)
		}
	}
}
