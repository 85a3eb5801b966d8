package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"

	"github.com/mach-fl/mach/internal/telemetry"
)

// TelemetryBenchConfig parameterizes `machbench -exp telemetry`: one fleet
// cell of the scale benchmark — the same hfl.Engine run — repeated once per
// observability tier: telemetry off, metrics only, metrics plus spans,
// metrics plus a full decision trace, and metrics plus spans under a live
// /metrics scrape load, so the overhead of each tier is measured against an
// identical workload. Telemetry never feeds back into a run, so every tier
// must end on the same bits.
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

// scaleConfig reuses the scale benchmark's validation and fleet builder.
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

// TelemetryBenchRow is one tier's measurement.
type TelemetryBenchRow struct {
	// Mode is "off" (nil sink), "metrics" (counters, gauges, histograms),
	// "spans" (metrics plus span recording), "trace" (metrics plus a full
	// JSONL decision trace) or "scrape" (spans plus a goroutine hammering
	// the debug server's /metrics endpoint throughout the run).
	Mode          string `json:"mode"`
	StepsMeasured int    `json:"steps_measured"`
	// WallNs is stopwatch time over the measured window — the off tier has
	// no other clock — and NsPerStep / NsPerDeviceStep divide it by the
	// window's steps and steps × devices.
	WallNs          int64   `json:"wall_ns"`
	NsPerStep       int64   `json:"ns_per_step"`
	NsPerDeviceStep float64 `json:"ns_per_device_step"`
	AllocsPerStep   float64 `json:"allocs_per_step"`
	BytesPerStep    float64 `json:"bytes_per_step"`
	SampledPerStep  float64 `json:"sampled_per_step"`
	// OverheadVsOff is (WallNs − off.WallNs) / off.WallNs as a percentage
	// (0 for the off row itself).
	OverheadVsOff float64 `json:"overhead_vs_off_pct"`
	// TraceEvents/TraceBytes size the trace the run emitted (trace mode) and
	// Scrapes counts the /metrics GETs it served (scrape mode) — both over
	// the whole run, warm-up included.
	TraceEvents int64 `json:"trace_events,omitempty"`
	TraceBytes  int64 `json:"trace_bytes,omitempty"`
	Scrapes     int64 `json:"scrapes,omitempty"`
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

// telemetryBenchReps is how many rounds of the five tiers run; each tier's
// fastest repetition is recorded. The measured window is only ~30 steps,
// short enough that scheduler noise on a shared box swamps the tier deltas —
// the minimum over a few runs is the standard noise-rejecting estimator,
// determinism makes every repetition the same workload, and running the
// tiers round-robin spreads a noisy stretch over all of them instead of
// charging it to one.
const telemetryBenchReps = 3

// measureTelemetryOnce runs the cell once with the sink configured for mode.
func measureTelemetryOnce(cfg TelemetryBenchConfig, mode string) (TelemetryBenchRow, *fleetWindow, error) {
	var tel *telemetry.Telemetry
	var sink *countingWriter
	var trace *telemetry.Trace
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
		return TelemetryBenchRow{}, nil, fmt.Errorf("bench: unknown telemetry mode %q", mode)
	}
	scfg := cfg.scaleConfig()
	eng, _, err := newFleet(scfg, scfg.Cells[0], false, 1)
	if err != nil {
		return TelemetryBenchRow{}, nil, err
	}
	var scraper *metricsScraper
	var scrapes int64
	if mode == "scrape" {
		if scraper, err = startMetricsScraper(tel); err != nil {
			return TelemetryBenchRow{}, nil, err
		}
	}
	w, err := measure(eng, tel, cfg.WarmupSteps)
	if scraper != nil {
		scrapes = scraper.stop()
	}
	if err != nil {
		return TelemetryBenchRow{}, nil, err
	}
	row := TelemetryBenchRow{
		Mode:            mode,
		StepsMeasured:   cfg.Steps,
		WallNs:          w.wall.Nanoseconds(),
		NsPerStep:       w.wall.Nanoseconds() / int64(cfg.Steps),
		NsPerDeviceStep: float64(w.wall.Nanoseconds()) / (float64(cfg.Steps) * float64(cfg.Devices)),
		AllocsPerStep:   w.allocs,
		BytesPerStep:    w.bytes,
		SampledPerStep:  w.sampledPerStep,
		Scrapes:         scrapes,
	}
	if trace != nil {
		if err := trace.Close(); err != nil {
			return TelemetryBenchRow{}, nil, fmt.Errorf("bench: telemetry trace: %w", err)
		}
		row.TraceEvents = trace.Events()
		row.TraceBytes = sink.n
	}
	if scraper != nil && scrapes == 0 {
		return TelemetryBenchRow{}, nil, fmt.Errorf("bench: scrape mode completed no /metrics scrapes")
	}
	return row, w, nil
}

// metricsScraper hammers a real debug server's /metrics endpoint from a
// background goroutine, so the scrape row prices serving the Prometheus
// exposition concurrently with the run — snapshot, encode and HTTP included.
type metricsScraper struct {
	srv    *telemetry.DebugServer
	done   chan struct{}
	closed chan struct{}
	n      atomic.Int64
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
				continue
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close() //machlint:allow errdrop scrape loop: a close failure just ends this probe; the next GET reports it
			if err == nil && resp.StatusCode == http.StatusOK {
				s.n.Add(1)
			}
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

// RunTelemetryBench measures the cell per observability tier (fastest of
// telemetryBenchReps). Beyond the overhead numbers it is a determinism check:
// every tier, and every repetition, must end on the off tier's global model,
// evaluation and per-step sampled counts bit for bit, since telemetry never
// feeds back into the simulation.
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
	modes := []string{"off", "metrics", "spans", "trace", "scrape"}
	res.Rows = make([]TelemetryBenchRow, len(modes))
	var ref *fleetWindow
	for rep := 0; rep < telemetryBenchReps; rep++ {
		for i, mode := range modes {
			row, w, err := measureTelemetryOnce(cfg, mode)
			if err != nil {
				return nil, fmt.Errorf("bench: telemetry %s: %w", mode, err)
			}
			if ref == nil {
				ref = w
			} else if !sameRun(ref, w) {
				return nil, fmt.Errorf("bench: telemetry %s rep %d: global model or per-step sampled counts differ from the off tier — telemetry fed back into the run", mode, rep)
			}
			if rep == 0 || row.WallNs < res.Rows[i].WallNs {
				res.Rows[i] = row
			}
		}
	}
	for i := range res.Rows[1:] {
		row, off := &res.Rows[i+1], res.Rows[0].WallNs
		row.OverheadVsOff = 100 * float64(row.WallNs-off) / float64(off)
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
		"mode", "ns/step", "ns/dev-step", "allocs/step", "bytes/step", "sampled/step",
		"overhead", "events", "trace B", "scrapes"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%8s %12d %12.1f %13.1f %14.0f %12.1f %9.2f%% %12d %12d %9d\n",
			row.Mode, row.NsPerStep, row.NsPerDeviceStep, row.AllocsPerStep,
			row.BytesPerStep, row.SampledPerStep, row.OverheadVsOff,
			row.TraceEvents, row.TraceBytes, row.Scrapes); err != nil {
			return err
		}
	}
	return nil
}
