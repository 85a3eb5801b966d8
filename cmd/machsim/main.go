// Command machsim runs a single HFL training experiment: one task, one
// sampling strategy, one mobility source. It prints the accuracy history as
// CSV and a summary line, and can consume real-format mobility traces
// produced by cmd/tracegen (-trace/-coords), exercising the same pipeline
// the paper uses with the Shanghai Telecom dataset.
//
// Usage:
//
//	machsim -task mnist -strategy mach -steps 150
//	tracegen -trace t.csv -coords s.csv && \
//	machsim -task fmnist -strategy mach -trace t.csv -coords s.csv
//
// With -stream the trace is consumed through the O(Devices) streaming
// mobility window (DESIGN.md §12) instead of being materialized into a dense
// Steps×Devices schedule; the trace must then be sorted by start time
// (tracegen -sort-time) and -step-dur must be given:
//
//	tracegen -sort-time -trace t.csv -coords s.csv && \
//	machsim -task mnist -trace t.csv -coords s.csv -stream -step-dur 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"math/rand"

	"github.com/mach-fl/mach/internal/bench"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/telemetry"
)

// writeCSVTo streams write into the file at path ("" means stdout). The
// close error is part of the write: a failed flush must not report success.
func writeCSVTo(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close %s: %w", path, cerr)
	}
	return err
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "machsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		task     = flag.String("task", "mnist", "task: mnist | fmnist | cifar10")
		strategy = flag.String("strategy", "mach", "sampling strategy: uniform | class-balance | statistical | mach | mach-p")
		scale    = flag.String("scale", "ci", "preset scale: ci | full")
		steps    = flag.Int("steps", 0, "override step budget")
		seed     = flag.Int64("seed", 1, "override random seed")
		target   = flag.Float64("target", 0, "stop at this accuracy (0 = run to completion)")
		tracePth = flag.String("trace", "", "mobility trace CSV (from tracegen); default synthetic waypoint")
		coords   = flag.String("coords", "", "station coordinates CSV (required with -trace)")
		stream   = flag.Bool("stream", false, "stream -trace through an O(Devices) mobility window instead of materializing the dense Steps×Devices schedule; requires -step-dur and a trace sorted by start time (tracegen -sort-time)")
		stepDur  = flag.Int64("step-dur", 0, "trace-time units per FL step (0 = horizon/steps; required >0 with -stream, which cannot scan the horizon up front)")
		edges    = flag.Int("edges", 0, "override edge count")
		devices  = flag.Int("devices", 0, "override device count")
		outPath  = flag.String("out", "", "write accuracy history CSV here (default stdout)")
		confPath = flag.String("config", "", "JSON experiment config layered over the preset; -seed, -steps, -edges and -devices override it only when given")

		debugAddr  = flag.String("debug-addr", "", "serve /debug/*, /metrics, /healthz and /readyz on this address (watch with machtop)")
		metricsOut = flag.String("metrics-out", "", "write the final telemetry snapshot JSON here (compare runs with machtop diff)")
		traceOut   = flag.String("trace-out", "", "write a JSONL sampling-decision trace here (read with machtrace)")
		traceEvery = flag.Int("trace-every", 0, "record decision/phase events only every N steps (0 = all)")
		traceEdges = flag.Int("trace-edges", 0, "record decisions only for the first N edges (0 = all)")
	)
	flag.Parse()

	cfg, err := bench.ResolveConfig(bench.TaskPreset(bench.Task(*task), bench.Scale(*scale)), *confPath, flag.CommandLine,
		map[string]func(*bench.Config){
			"seed":    func(c *bench.Config) { c.Seed = *seed },
			"steps":   func(c *bench.Config) { c.Steps = *steps },
			"edges":   func(c *bench.Config) { c.Edges = *edges },
			"devices": func(c *bench.Config) { c.Devices = *devices },
		})
	if err != nil {
		return err
	}
	cfg.Runs = 1

	env, err := cfg.BuildEnvironment(0)
	if err != nil {
		return err
	}
	var src mobility.StepSource = env.Schedule
	if *tracePth != "" {
		if *stream {
			f, ts, err := streamFromTrace(*tracePth, *coords, cfg.Edges, cfg.Devices, cfg.Steps, cfg.Seed, *stepDur)
			if err != nil {
				return err
			}
			// The source scans the file lazily during the run; keep it
			// open until the engine finishes.
			defer f.Close() //machlint:allow errdrop read-only file; a close failure cannot corrupt anything
			src = ts
		} else {
			sched, err := scheduleFromTrace(*tracePth, *coords, cfg.Edges, cfg.Devices, cfg.Steps, cfg.Seed, *stepDur)
			if err != nil {
				return err
			}
			src = sched
		}
	} else if *stream {
		return fmt.Errorf("-stream requires -trace (synthetic presets already generate dense schedules)")
	}

	strat, err := cfg.NewStrategy(*strategy)
	if err != nil {
		return err
	}
	eng, err := hfl.New(cfg.HFLConfig(0), cfg.Arch(), env.DeviceData, env.Test, src, strat)
	if err != nil {
		return err
	}

	// Telemetry is attached whenever any observability surface is requested;
	// without them the engine keeps its zero-overhead nil sink. Spans ride
	// along with the debug server: they are what /debug/spans and the
	// span_*_ns percentile families serve.
	var tel *telemetry.Telemetry
	if *debugAddr != "" || *traceOut != "" || *metricsOut != "" {
		tel = telemetry.New()
		eng.SetTelemetry(tel)
	}
	if *debugAddr != "" {
		tel.EnableSpans(true)
		srv, err := telemetry.StartDebugServer(*debugAddr, tel)
		if err != nil {
			return err
		}
		defer srv.Close() //machlint:allow errdrop process is exiting; the listener dies with it
		fmt.Fprintf(os.Stderr, "machsim: build %s\n", telemetry.BuildVersion())
		fmt.Fprintf(os.Stderr, "machsim: debug server on http://%s/debug/\n", srv.Addr)
		// The engine exists and the run is about to start: ready to be scraped.
		srv.SetReady(true)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("create trace %s: %w", *traceOut, err)
		}
		trace := telemetry.NewTrace(f, telemetry.TraceConfig{Every: *traceEvery, MaxEdges: *traceEdges})
		tel.SetTrace(trace)
		defer func() {
			if err := trace.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "machsim: trace:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "machsim: trace:", err)
			}
		}()
	}

	var opts []hfl.RunOption
	if *target > 0 {
		opts = append(opts, hfl.WithTarget(*target))
	}
	opts = append(opts, hfl.WithEvalHook(func(step int, acc, loss float64) {
		fmt.Fprintf(os.Stderr, "step %4d  accuracy %.4f  loss %.4f\n", step, acc, loss)
	}))

	start := telemetry.WallNow()
	res, err := eng.Run(opts...)
	if err != nil {
		return err
	}

	if err := writeCSVTo(*outPath, res.History.WriteCSV); err != nil {
		return err
	}
	if *metricsOut != "" {
		if err := writeCSVTo(*metricsOut, tel.WriteSnapshot); err != nil {
			return fmt.Errorf("metrics snapshot: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr,
		"machsim: %s/%s  steps=%d  sampled=%d  final accuracy=%.4f  best=%.4f  elapsed=%v\n",
		cfg.Task, *strategy, res.StepsRun, res.TotalSampled,
		res.History.FinalAccuracy(), res.History.BestAccuracy(),
		telemetry.WallSince(start).Round(time.Millisecond))
	if res.ReachedTarget {
		fmt.Fprintf(os.Stderr, "machsim: reached target %.2f at step %d\n", *target, res.TargetStep)
	}
	confusion, err := eng.EvaluateConfusion()
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "machsim: final confusion matrix")
	if err := confusion.Write(os.Stderr); err != nil {
		return err
	}
	return nil
}

// clusterFromCoords reads the station coordinates file and clusters stations
// into edges, the shared front half of both trace-lowering paths.
func clusterFromCoords(coordsPath string, edges int, seed int64) ([]int, error) {
	if coordsPath == "" {
		return nil, fmt.Errorf("-trace requires -coords (station positions for edge clustering)")
	}
	cf, err := os.Open(coordsPath)
	if err != nil {
		return nil, fmt.Errorf("open coords: %w", err)
	}
	defer cf.Close() //machlint:allow errdrop read-only file; a close failure cannot corrupt anything
	stations, err := mobility.ReadStationsCSV(cf)
	if err != nil {
		return nil, err
	}
	return mobility.ClusterStations(newSeededRand(seed), stations, edges)
}

// scheduleFromTrace builds the B^t schedule from a tracegen trace: parse the
// records and station coordinates, cluster stations into edges, and map
// record intervals onto FL time steps. stepDur <= 0 spreads the trace
// horizon over the configured number of steps.
func scheduleFromTrace(tracePath, coordsPath string, edges, devices, steps int, seed, stepDur int64) (*mobility.Schedule, error) {
	edgeOf, err := clusterFromCoords(coordsPath, edges, seed)
	if err != nil {
		return nil, err
	}
	tf, err := os.Open(tracePath)
	if err != nil {
		return nil, fmt.Errorf("open trace: %w", err)
	}
	defer tf.Close() //machlint:allow errdrop read-only file; a close failure cannot corrupt anything
	trace, err := mobility.ReadCSV(tf)
	if err != nil {
		return nil, err
	}
	if stepDur <= 0 {
		stepDur = trace.Horizon() / int64(steps)
		if stepDur < 1 {
			stepDur = 1
		}
	}
	return mobility.BuildSchedule(trace, edgeOf, edges, devices, steps, stepDur)
}

// streamFromTrace opens the trace as a streaming StepSource: the engine pulls
// per-step move deltas from an O(Devices) window while the file is scanned
// exactly once. The caller owns the returned file for the engine's lifetime.
// Streaming cannot derive the step duration from the trace horizon — that
// would need the full scan the window exists to avoid — so -step-dur is
// mandatory here.
func streamFromTrace(tracePath, coordsPath string, edges, devices, steps int, seed, stepDur int64) (*os.File, *mobility.TraceSource, error) {
	if stepDur <= 0 {
		return nil, nil, fmt.Errorf("-stream requires -step-dur > 0 (the streaming window cannot pre-scan the trace horizon)")
	}
	edgeOf, err := clusterFromCoords(coordsPath, edges, seed)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return nil, nil, fmt.Errorf("open trace: %w", err)
	}
	src, err := mobility.NewTraceSource(f, mobility.TraceSourceConfig{
		Edges:         edges,
		Devices:       devices,
		Steps:         steps,
		StepDur:       stepDur,
		EdgeOfStation: edgeOf,
		Format:        mobility.TraceCSV,
	})
	if err != nil {
		f.Close() //machlint:allow errdrop read-only file; the open error is the one that matters
		return nil, nil, err
	}
	return f, src, nil
}

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
