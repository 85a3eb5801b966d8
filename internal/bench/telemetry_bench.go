package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"

	"github.com/mach-fl/mach/internal/parallel"
	"github.com/mach-fl/mach/internal/telemetry"
)

// TelemetryBenchConfig parameterizes `machbench -exp telemetry`: the
// sampling-only control plane of the scale benchmark run at one population
// shape once per observability tier — telemetry off, metrics only, metrics
// plus spans, metrics plus a full decision trace, and metrics plus spans
// under a live /metrics scrape load — so the overhead of each tier is
// measured against an identical workload. All modes replay the same coin
// streams, so their sampled counts must agree exactly.
type TelemetryBenchConfig struct {
	Devices       int     `json:"devices"`
	Edges         int     `json:"edges"`
	Steps         int     `json:"steps"`
	WarmupSteps   int     `json:"warmup_steps"`
	CloudInterval int     `json:"cloud_interval"`
	StayProb      float64 `json:"stay_prob"`
	Participation float64 `json:"participation"`
	Workers       int     `json:"workers"`
	Seed          int64   `json:"seed"`
}

// TelemetryBenchPreset is the recorded configuration of BENCH_telemetry.json:
// the 10k-device × 300-edge cell, sized so per-step work is large enough that
// per-event costs show up as a ratio rather than as noise.
func TelemetryBenchPreset() TelemetryBenchConfig {
	return TelemetryBenchConfig{
		Devices:       10_000,
		Edges:         300,
		Steps:         30,
		WarmupSteps:   5,
		CloudInterval: 5,
		StayProb:      0.9,
		Participation: 0.1,
		Seed:          1,
	}
}

// TelemetryBenchQuickPreset is a seconds-scale smoke configuration for CI.
func TelemetryBenchQuickPreset() TelemetryBenchConfig {
	cfg := TelemetryBenchPreset()
	cfg.Devices = 1_000
	cfg.Edges = 20
	cfg.Steps = 10
	cfg.WarmupSteps = 2
	return cfg
}

// scaleConfig reuses the scale benchmark's validation and engine plumbing.
func (c TelemetryBenchConfig) scaleConfig() ScaleConfig {
	return ScaleConfig{
		Cells:         []ScaleCell{{Devices: c.Devices, Edges: c.Edges}},
		Steps:         c.Steps,
		WarmupSteps:   c.WarmupSteps,
		CloudInterval: c.CloudInterval,
		StayProb:      c.StayProb,
		Participation: c.Participation,
		Workers:       c.Workers,
		Seed:          c.Seed,
	}
}

// Validate reports whether the configuration is usable.
func (c TelemetryBenchConfig) Validate() error { return c.scaleConfig().Validate() }

// TelemetryBenchRow is one mode's measurement.
type TelemetryBenchRow struct {
	// Mode is "off" (nil sink), "metrics" (counters, gauges, histograms),
	// "spans" (metrics plus span recording), "trace" (metrics plus a full
	// JSONL decision trace) or "scrape" (spans plus a goroutine hammering
	// the debug server's /metrics endpoint throughout the measured window).
	Mode          string `json:"mode"`
	StepsMeasured int    `json:"steps_measured"`
	WallNs        int64  `json:"wall_ns"`
	NsPerStep     int64  `json:"ns_per_step"`
	// NsPerDeviceDecision is WallNs / (steps × devices), comparable to the
	// scale benchmark's headline metric.
	NsPerDeviceDecision float64 `json:"ns_per_device_decision"`
	AllocsPerStep       float64 `json:"allocs_per_step"`
	BytesPerStep        float64 `json:"bytes_per_step"`
	SampledPerStep      float64 `json:"sampled_per_step"`
	// OverheadVsOff is (WallNs − off.WallNs) / off.WallNs as a percentage
	// (0 for the off row itself).
	OverheadVsOff float64 `json:"overhead_vs_off_pct"`
	// TraceEvents/TraceBytes size the trace the run emitted (trace mode).
	TraceEvents int64 `json:"trace_events,omitempty"`
	TraceBytes  int64 `json:"trace_bytes,omitempty"`
	// Scrapes counts the /metrics GETs completed during the measured window
	// (scrape mode).
	Scrapes int64 `json:"scrapes,omitempty"`
}

// TelemetryBenchResult is the payload of BENCH_telemetry.json.
type TelemetryBenchResult struct {
	GOOS       string               `json:"goos"`
	GOARCH     string               `json:"goarch"`
	NumCPU     int                  `json:"num_cpu"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Config     TelemetryBenchConfig `json:"config"`
	Rows       []TelemetryBenchRow  `json:"rows"`
	Profiles   *ProfileMeta         `json:"profiles,omitempty"`
}

// countingWriter discards the trace while counting its bytes, so the trace
// row pays encoding and buffering but not disk.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// telemetryTraceBuf is one edge's decision buffers in the trace mode,
// mirroring the engine's edgeDecideState trace fields: filled by decideEdge
// during the parallel decide, emitted serially in edge order afterwards.
type telemetryTraceBuf struct {
	members   []int
	estimates []float64
	coins     []float64
	sampled   []int
}

// stepTelemetry runs one control-plane step with the engine's instrumentation
// pattern: phase timings around decide and finalize, per-edge member/sampled
// histograms, counters, and — when the trace records this step — buffered
// decision events emitted in edge order. With tel == nil it must stay on the
// same zero-overhead path as stepIndexed.
func stepTelemetry(e *scaleEngine, bufs []telemetryTraceBuf, tel *telemetry.Telemetry, t, workers int) int64 {
	stepStart := tel.Now()
	e.advance(t)
	e.index.AdvanceWith(t, e.win.Row(), e.stepMoves, e.stepRebuilt)
	decideStart := tel.Now()
	tr := tel.Trace()
	parallel.ForEach(workers, len(e.decide), func(n int) {
		st := &e.decide[n]
		var buf *telemetryTraceBuf
		if tr.DecisionActive(t, n) {
			buf = &bufs[n]
		}
		st.sampled = e.decideEdge(t, n, e.index.Members(n), st, &st.obs, buf)
		st.obs.flush(e.strat, t)
	})
	decideEnd := tel.Now()
	if tel != nil && tr.StepActive(t) {
		tr.Emit(&telemetry.Event{Type: telemetry.EventPhase, Step: t,
			Phase: &telemetry.PhaseEvent{Name: "decide", NS: decideEnd - decideStart}})
	}
	tel.Observe(telemetry.HistDecideNS, decideEnd-decideStart)
	// Span parents re-derive the step root the way the engine does: pure
	// hashes, so the spans mode pays exactly the engine's recording cost.
	stepSpan := telemetry.DeriveSpanID(telemetry.SpanStep, t, -1, -1)
	tel.RecordSpan(telemetry.SpanDecide, stepSpan, t, -1, -1, decideStart, decideEnd)

	finStart := decideEnd
	total := int64(0)
	for n := range e.decide {
		st := &e.decide[n]
		total += st.sampled
		if tel == nil {
			continue
		}
		tel.Observe(telemetry.HistEdgeMembers, int64(len(e.index.Members(n))))
		tel.Observe(telemetry.HistEdgeSampled, st.sampled)
		tel.Add(telemetry.CounterDevicesTrained, st.sampled)
		if tr.DecisionActive(t, n) && len(bufs[n].members) > 0 {
			buf := &bufs[n]
			tr.Emit(&telemetry.Event{Type: telemetry.EventDecision, Step: t,
				Decision: &telemetry.DecisionEvent{
					Edge:      n,
					Members:   buf.members,
					Estimates: buf.estimates,
					Probs:     st.probs[:len(buf.members)],
					Coins:     buf.coins,
					Sampled:   buf.sampled,
				}})
			buf.members = buf.members[:0]
		}
	}
	finEnd := tel.Now()
	tel.Observe(telemetry.HistAggregateNS, finEnd-finStart)
	tel.RecordSpan(telemetry.SpanFinalize, stepSpan, t, -1, -1, finStart, finEnd)
	e.cloudRound(t)
	tel.Add(telemetry.CounterSteps, 1)
	stepEnd := tel.Now()
	tel.Observe(telemetry.HistStepNS, stepEnd-stepStart)
	tel.RecordSpan(telemetry.SpanStep, 0, t, -1, -1, stepStart, stepEnd)
	return total
}

// telemetryBenchReps is how many times each mode's workload is repeated;
// the fastest repetition is recorded. The measured window is only ~30 steps,
// short enough that scheduler noise on a shared core can swamp the mode
// deltas — the minimum over a few runs is the standard noise-rejecting
// estimator, and determinism makes every repetition the same workload.
const telemetryBenchReps = 3

// measureTelemetryMode runs the full workload telemetryBenchReps times in one
// mode and returns the fastest repetition's measurements.
func measureTelemetryMode(cfg TelemetryBenchConfig, mode string) (TelemetryBenchRow, int64, error) {
	var best TelemetryBenchRow
	var bestSampled int64
	for rep := 0; rep < telemetryBenchReps; rep++ {
		row, sampled, err := measureTelemetryOnce(cfg, mode)
		if err != nil {
			return TelemetryBenchRow{}, 0, err
		}
		if rep > 0 && sampled != bestSampled {
			return TelemetryBenchRow{}, 0, fmt.Errorf(
				"bench: telemetry %s rep %d sampled %d devices, rep 0 sampled %d — nondeterministic workload",
				mode, rep, sampled, bestSampled)
		}
		if rep == 0 || row.WallNs < best.WallNs {
			best = row
		}
		bestSampled = sampled
	}
	return best, bestSampled, nil
}

// measureTelemetryOnce runs the full workload in one mode and measures the
// timed window between two MemStats snapshots.
func measureTelemetryOnce(cfg TelemetryBenchConfig, mode string) (TelemetryBenchRow, int64, error) {
	scfg := cfg.scaleConfig()
	cell := scfg.Cells[0]
	totalSteps := cfg.WarmupSteps + cfg.Steps
	eng, err := newScaleEngine(scfg, cell, totalSteps, false)
	if err != nil {
		return TelemetryBenchRow{}, 0, err
	}
	var tel *telemetry.Telemetry
	var sink *countingWriter
	var trace *telemetry.Trace
	bufs := make([]telemetryTraceBuf, cell.Edges)
	switch mode {
	case "off":
	case "metrics":
		tel = telemetry.New()
	case "spans", "scrape":
		tel = telemetry.New()
		tel.EnableSpans(true)
	case "trace":
		tel = telemetry.New()
		sink = &countingWriter{}
		trace = telemetry.NewTrace(sink, telemetry.TraceConfig{})
		tel.SetTrace(trace)
	default:
		return TelemetryBenchRow{}, 0, fmt.Errorf("bench: unknown telemetry mode %q", mode)
	}
	workers := scfg.workers()
	for t := 0; t < cfg.WarmupSteps; t++ {
		stepTelemetry(eng, bufs, tel, t, workers)
	}
	var scraper *metricsScraper
	if mode == "scrape" {
		s, err := startMetricsScraper(tel)
		if err != nil {
			return TelemetryBenchRow{}, 0, err
		}
		scraper = s
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := telemetry.WallNow()
	sampled := int64(0)
	for t := cfg.WarmupSteps; t < totalSteps; t++ {
		sampled += stepTelemetry(eng, bufs, tel, t, workers)
	}
	wall := telemetry.WallSince(start)
	runtime.ReadMemStats(&after)
	row := TelemetryBenchRow{
		Mode:                mode,
		StepsMeasured:       cfg.Steps,
		WallNs:              wall.Nanoseconds(),
		NsPerStep:           wall.Nanoseconds() / int64(cfg.Steps),
		NsPerDeviceDecision: float64(wall.Nanoseconds()) / (float64(cfg.Steps) * float64(cell.Devices)),
		AllocsPerStep:       float64(after.Mallocs-before.Mallocs) / float64(cfg.Steps),
		BytesPerStep:        float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Steps),
		SampledPerStep:      float64(sampled) / float64(cfg.Steps),
	}
	if trace != nil {
		if err := trace.Close(); err != nil {
			return TelemetryBenchRow{}, 0, fmt.Errorf("bench: telemetry trace: %w", err)
		}
		row.TraceEvents = trace.Events()
		row.TraceBytes = sink.n
	}
	if scraper != nil {
		row.Scrapes = scraper.stop()
		if row.Scrapes == 0 {
			return TelemetryBenchRow{}, 0, fmt.Errorf("bench: scrape mode completed no /metrics scrapes")
		}
	}
	return row, sampled, nil
}

// metricsScraper hammers a real debug server's /metrics endpoint from a
// background goroutine, so the scrape row prices serving the Prometheus
// exposition concurrently with the run — snapshot, encode and HTTP included.
type metricsScraper struct {
	srv    *telemetry.DebugServer
	done   chan struct{}
	closed chan struct{}
	n      atomic.Int64
	errs   atomic.Int64
}

func startMetricsScraper(tel *telemetry.Telemetry) (*metricsScraper, error) {
	srv, err := telemetry.StartDebugServer("127.0.0.1:0", tel)
	if err != nil {
		return nil, fmt.Errorf("bench: scrape server: %w", err)
	}
	s := &metricsScraper{srv: srv, done: make(chan struct{}), closed: make(chan struct{})}
	url := "http://" + srv.Addr + "/metrics"
	go func() {
		defer close(s.closed)
		client := &http.Client{}
		for {
			select {
			case <-s.done:
				return
			default:
			}
			resp, err := client.Get(url)
			if err != nil {
				s.errs.Add(1)
				continue
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close() //machlint:allow errdrop scrape loop: a close failure just ends this probe; the next GET reports it
			if err != nil || resp.StatusCode != http.StatusOK {
				s.errs.Add(1)
				continue
			}
			s.n.Add(1)
		}
	}()
	return s, nil
}

// stop halts the scrape loop and tears the server down, returning the number
// of successful scrapes.
func (s *metricsScraper) stop() int64 {
	close(s.done)
	<-s.closed
	s.srv.Close() //machlint:allow errdrop bench teardown; scrape counts were already collected
	return s.n.Load()
}

// RunTelemetryBench measures the workload once per observability tier.
// Beyond the overhead numbers it is a determinism check: every mode must
// sample exactly the same devices, since telemetry never feeds back into the
// simulation.
func RunTelemetryBench(cfg TelemetryBenchConfig) (*TelemetryBenchResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &TelemetryBenchResult{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config:     cfg,
	}
	var offWall, offSampled int64
	for _, mode := range []string{"off", "metrics", "spans", "trace", "scrape"} {
		row, sampled, err := measureTelemetryMode(cfg, mode)
		if err != nil {
			return nil, fmt.Errorf("bench: telemetry %s: %w", mode, err)
		}
		if mode == "off" {
			offWall, offSampled = row.WallNs, sampled
		} else {
			if sampled != offSampled {
				return nil, fmt.Errorf("bench: telemetry %s sampled %d devices, off sampled %d — telemetry fed back into the run",
					mode, sampled, offSampled)
			}
			if offWall > 0 {
				row.OverheadVsOff = 100 * float64(row.WallNs-offWall) / float64(offWall)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteTelemetryBenchJSON writes the result as indented JSON.
func (r *TelemetryBenchResult) WriteTelemetryBenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RenderTelemetryBench prints the result as a text table.
func RenderTelemetryBench(w io.Writer, r *TelemetryBenchResult) error {
	if _, err := fmt.Fprintf(w, "Telemetry overhead benchmark — %s/%s, %d CPU (GOMAXPROCS=%d)\n",
		r.GOOS, r.GOARCH, r.NumCPU, r.GOMAXPROCS); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "config: devices=%d edges=%d steps=%d warmup=%d participation=%.2f seed=%d\n\n",
		r.Config.Devices, r.Config.Edges, r.Config.Steps, r.Config.WarmupSteps,
		r.Config.Participation, r.Config.Seed); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%8s %12s %12s %13s %14s %12s %10s %12s %12s %9s\n",
		"mode", "ns/step", "ns/dev-dec", "allocs/step", "bytes/step", "sampled/step",
		"overhead", "events", "trace B", "scrapes"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%8s %12d %12.1f %13.1f %14.0f %12.1f %9.2f%% %12d %12d %9d\n",
			row.Mode, row.NsPerStep, row.NsPerDeviceDecision, row.AllocsPerStep,
			row.BytesPerStep, row.SampledPerStep, row.OverheadVsOff,
			row.TraceEvents, row.TraceBytes, row.Scrapes); err != nil {
			return err
		}
	}
	return nil
}
