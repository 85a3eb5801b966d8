package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/mach-fl/mach/internal/det"
)

// Snapshot diffing: the regression half of the observability plane. A run
// writes its final Snapshot to JSON (machsim -metrics-out); machtop's diff
// mode compares two such snapshots and flags metric movements beyond a
// threshold in the direction that is bad for that metric — latency and
// byte counters up, accuracy down. Everything else is reported as an
// informational delta, so a diff doubles as a quick "what changed"
// summary between two runs.

// SnapshotDelta is one metric's movement between two snapshots.
type SnapshotDelta struct {
	// Metric is the qualified name: "counter/steps", "gauge/accuracy",
	// "hist/step_ns.p99", "shard0/decide.p99".
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// Pct is the relative change in percent ((new-old)/old·100); +Inf is
	// represented as 0-division guard: a metric appearing from zero reports
	// Pct 100 per doubling convention below.
	Pct float64 `json:"pct"`
	// Regression marks movement beyond the threshold in the metric's bad
	// direction (latency/bytes/loss up, accuracy down).
	Regression bool `json:"regression"`
}

// DiffOptions controls DiffSnapshots.
type DiffOptions struct {
	// ThresholdPct is the relative movement (percent) beyond which a
	// bad-direction change becomes a regression. 0 means the default 10%.
	ThresholdPct float64
}

// regressionDirection returns +1 when an increase is bad, -1 when a
// decrease is bad, and 0 when the metric has no bad direction.
func regressionDirection(metric string) int {
	switch {
	case strings.HasSuffix(metric, "_ns.mean"), strings.HasSuffix(metric, "_ns.p99"),
		strings.HasSuffix(metric, "_ns.p999"):
		return +1 // latency up is bad
	case strings.HasSuffix(metric, "_bytes"):
		return +1 // more traffic for the same run is bad
	case strings.HasSuffix(metric, "/loss"):
		return +1
	case strings.HasSuffix(metric, "/accuracy"):
		return -1
	}
	return 0
}

// pctChange is the relative movement in percent. A metric appearing from
// zero reports 100% per unit convention-free; both zero reports 0.
func pctChange(oldV, newV float64) float64 {
	//machlint:allow floateq snapshot values are loaded verbatim from JSON; bit-equal means genuinely unchanged
	if oldV == newV {
		return 0
	}
	//machlint:allow floateq exact zero means the metric was absent or never observed on the old side
	if oldV == 0 {
		return 100
	}
	return (newV - oldV) / math.Abs(oldV) * 100
}

// DiffSnapshots compares two snapshots metric by metric and returns every
// delta in deterministic (sorted) order. Counters and gauges compare their
// values; histograms compare mean and p99; shard phases compare p99.
// Metrics absent on one side compare against zero.
func DiffSnapshots(oldS, newS *Snapshot, opt DiffOptions) []SnapshotDelta {
	threshold := opt.ThresholdPct
	if threshold <= 0 {
		threshold = 10
	}

	merged := map[string][2]float64{}
	addOld := func(metric string, v float64) {
		e := merged[metric]
		e[0] = v
		merged[metric] = e
	}
	addNew := func(metric string, v float64) {
		e := merged[metric]
		e[1] = v
		merged[metric] = e
	}
	collect := func(s *Snapshot, add func(string, float64)) {
		if s == nil {
			return
		}
		for _, k := range det.SortedKeys(s.Counters) {
			add("counter/"+k, float64(s.Counters[k]))
		}
		for _, k := range det.SortedKeys(s.Gauges) {
			add("gauge/"+k, s.Gauges[k])
		}
		for _, k := range det.SortedKeys(s.Histograms) {
			h := s.Histograms[k]
			add("hist/"+k+".mean", h.Mean)
			add("hist/"+k+".p99", float64(h.P99))
		}
		for _, sh := range s.Shards {
			for _, p := range det.SortedKeys(sh.Phases) {
				add(fmt.Sprintf("shard%d/%s.p99", sh.Shard, p), float64(sh.Phases[p].P99))
			}
		}
	}
	collect(oldS, addOld)
	collect(newS, addNew)

	deltas := make([]SnapshotDelta, 0, len(merged))
	for _, metric := range det.SortedKeys(merged) {
		v := merged[metric]
		d := SnapshotDelta{Metric: metric, Old: v[0], New: v[1], Pct: pctChange(v[0], v[1])}
		if dir := regressionDirection(metric); dir != 0 {
			d.Regression = d.Pct*float64(dir) > threshold
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// Regressions counts the flagged deltas.
func Regressions(deltas []SnapshotDelta) int {
	n := 0
	for _, d := range deltas {
		if d.Regression {
			n++
		}
	}
	return n
}

// WriteSnapshotDiff renders deltas as an aligned text table: changed
// metrics only (unchanged rows are suppressed), regressions marked with
// "!! REGRESSION", and a trailing summary line. The output is the golden-
// tested surface behind `machtop diff`.
func WriteSnapshotDiff(w io.Writer, deltas []SnapshotDelta) error {
	var b bytes.Buffer
	width := len("metric")
	changed := 0
	for _, d := range deltas {
		//machlint:allow floateq pctChange returns exact 0 for unchanged metrics by construction
		if d.Pct == 0 && !d.Regression {
			continue
		}
		changed++
		if len(d.Metric) > width {
			width = len(d.Metric)
		}
	}
	fmt.Fprintf(&b, "%-*s  %14s  %14s  %9s\n", width, "metric", "old", "new", "delta")
	for _, d := range deltas {
		//machlint:allow floateq pctChange returns exact 0 for unchanged metrics by construction
		if d.Pct == 0 && !d.Regression {
			continue
		}
		mark := ""
		if d.Regression {
			mark = "  !! REGRESSION"
		}
		fmt.Fprintf(&b, "%-*s  %14s  %14s  %+8.1f%%%s\n",
			width, d.Metric, formatMetric(d.Old), formatMetric(d.New), d.Pct, mark)
	}
	fmt.Fprintf(&b, "%d metric(s) changed, %d regression(s)\n", changed, Regressions(deltas))
	_, err := w.Write(b.Bytes())
	return err
}

// formatMetric renders a metric value compactly: integers without a
// fraction, everything else with four significant decimals.
func formatMetric(v float64) string {
	//machlint:allow floateq Trunc equality is the standard integrality test; a near-integer float should still print its fraction
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}
