// Command machbench regenerates the paper's evaluation — every figure and
// table — on the simulator. Results print as text tables; see EXPERIMENTS.md
// for the recorded paper-vs-measured comparison.
//
// Usage:
//
//	machbench -exp fig3 -task mnist -scale ci
//	machbench -exp all -scale full          # paper-scale, slow
//	machbench -exp fig3 -task mnist -config <(echo '{"Runs":1,"Steps":100}')
//
// A paper experiment's config is the task's preset, then the -config JSON
// layer (any bench.Config field by name), then -seed when given; -out saves
// the resolved config, which -config reproduces the run from.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/mach-fl/mach/internal/bench"
	"github.com/mach-fl/mach/internal/telemetry"
)

// csvDir, when set by -out, receives per-strategy accuracy curves.
var csvDir string

// exportCurves writes one CSV per strategy of a comparison.
func exportCurves(prefix string, cmp *bench.Comparison) error {
	if csvDir == "" {
		return nil
	}
	for _, res := range cmp.Results {
		path := filepath.Join(csvDir, fmt.Sprintf("%s_%s.csv", prefix, res.Strategy))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		err = res.History.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return nil
}

// writeLookupProfile dumps a runtime profile (block, mutex) at exit.
func writeLookupProfile(name, path string) {
	p := pprof.Lookup(name)
	if p == nil {
		fmt.Fprintf(os.Stderr, "machbench: no %s profile\n", name)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "machbench: create %s profile: %v\n", name, err)
		return
	}
	if err := p.WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "machbench: write %s profile: %v\n", name, err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "machbench: close %s profile: %v\n", name, err)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "machbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp    = flag.String("exp", "fig3", "experiment: fig3 | fig4 | fig5 | table1 | ablations | comm | scale | telemetry | all")
		task   = flag.String("task", "", "task: mnist | fmnist | cifar10 (default: all tasks)")
		scale  = flag.String("scale", "ci", "scale: ci | full")
		quick  = flag.Bool("quick", false, "use the seconds-scale smoke preset (scale/telemetry experiments only)")
		shards = flag.String("shards", "", "comma-separated shard counts for the scale experiment (empty = preset sweep)")

		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		blockProfile = flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
		mutexProfile = flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
		seed         = flag.Int64("seed", 1, "override base random seed")
		conf         = flag.String("config", "", "JSON experiment config layered over the preset (every bench.Config field by name); -seed overrides it only when given")
		outDir       = flag.String("out", "", "directory for per-strategy CSV curves and the resolved config (optional)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "machbench: close cpu profile:", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "machbench: create mem profile:", err)
				return
			}
			runtime.GC() // material heap only
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "machbench: write mem profile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "machbench: close mem profile:", err)
			}
		}()
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeLookupProfile("block", *blockProfile)
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeLookupProfile("mutex", *mutexProfile)
	}
	// profiles is recorded into the JSON-writing experiments' results, so a
	// committed number can be traced back to the profiles captured with it.
	var profiles *bench.ProfileMeta
	if *cpuProfile != "" || *memProfile != "" || *blockProfile != "" || *mutexProfile != "" {
		profiles = &bench.ProfileMeta{
			CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile,
		}
	}

	if *exp == "scale" {
		// The scale benchmark builds its own fleet populations; task/scale
		// flags don't apply.
		return runScale(*outDir, *quick, *shards, profiles)
	}
	if *exp == "comm" {
		// The wire-format benchmark runs a frozen distributed deployment
		// measured per codec scheme; task/scale flags don't apply.
		return runComm(*outDir, profiles)
	}
	if *exp == "telemetry" {
		// The telemetry overhead benchmark reruns one fleet cell per
		// observability tier; task/scale flags don't apply.
		return runTelemetry(*outDir, *quick, profiles)
	}

	tasks := bench.AllTasks()
	if *task != "" {
		tasks = []bench.Task{bench.Task(*task)}
	}
	sc := bench.Scale(*scale)
	if sc != bench.ScaleCI && sc != bench.ScaleFull {
		return fmt.Errorf("unknown scale %q", *scale)
	}

	for _, tk := range tasks {
		cfg, err := bench.ResolveConfig(bench.TaskPreset(tk, sc), *conf, flag.CommandLine,
			map[string]func(*bench.Config){"seed": func(c *bench.Config) { c.Seed = *seed }})
		if err != nil {
			return err
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return fmt.Errorf("create output dir: %w", err)
			}
			if err := bench.SaveConfig(cfg, filepath.Join(*outDir, fmt.Sprintf("config_%s.json", tk))); err != nil {
				return err
			}
			csvDir = *outDir
		}
		switch *exp {
		case "fig3":
			if err := runFig3(cfg); err != nil {
				return err
			}
		case "fig4":
			if err := runFig4(cfg); err != nil {
				return err
			}
		case "fig5":
			if err := runFig5(cfg); err != nil {
				return err
			}
		case "table1":
			if err := runTable1(cfg); err != nil {
				return err
			}
		case "ablations":
			if err := runAblations(cfg); err != nil {
				return err
			}
		case "all":
			for _, f := range []func(bench.Config) error{runFig3, runFig4, runFig5, runTable1} {
				if err := f(cfg); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("unknown experiment %q", *exp)
		}
	}
	return nil
}

func runFig3(cfg bench.Config) error {
	start := telemetry.WallNow()
	r, err := bench.RunFig3(cfg)
	if err != nil {
		return err
	}
	if err := bench.RenderFig3(os.Stdout, r); err != nil {
		return err
	}
	if err := exportCurves(fmt.Sprintf("fig3_%s", cfg.Task), r.Comparison); err != nil {
		return err
	}
	fmt.Printf("[fig3 %s done in %v]\n\n", cfg.Task, telemetry.WallSince(start).Round(time.Millisecond))
	return nil
}

func runFig4(cfg bench.Config) error {
	start := telemetry.WallNow()
	edges := []int{2, 5, 10}
	if cfg.Devices < 50 {
		edges = []int{2, 3, 5} // CI topology has fewer devices per edge
	}
	r, err := bench.RunEdgeSweep(cfg, edges)
	if err != nil {
		return err
	}
	if err := bench.RenderSweep(os.Stdout, r, "Figure 4"); err != nil {
		return err
	}
	fmt.Printf("[fig4 %s done in %v]\n\n", cfg.Task, telemetry.WallSince(start).Round(time.Millisecond))
	return nil
}

func runFig5(cfg bench.Config) error {
	start := telemetry.WallNow()
	r, err := bench.RunParticipationSweep(cfg, []float64{0.4, 0.5, 0.6, 0.7})
	if err != nil {
		return err
	}
	if err := bench.RenderSweep(os.Stdout, r, "Figure 5"); err != nil {
		return err
	}
	fmt.Printf("[fig5 %s done in %v]\n\n", cfg.Task, telemetry.WallSince(start).Round(time.Millisecond))
	return nil
}

func runAblations(cfg bench.Config) error {
	start := telemetry.WallNow()
	results, err := bench.RunAblations(cfg)
	if err != nil {
		return err
	}
	if err := bench.RenderAblations(os.Stdout, results); err != nil {
		return err
	}
	fmt.Printf("[ablations %s done in %v]\n\n", cfg.Task, telemetry.WallSince(start).Round(time.Millisecond))
	return nil
}

// writeBenchJSON writes one JSON-writing experiment's result as name in the
// working directory, or in outDir (created if missing) when -out is set, and
// reports how long the experiment took since start.
func writeBenchJSON(outDir, name string, start time.Time, write func(io.Writer) error) error {
	path := name
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
		path = filepath.Join(outDir, name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("\n[done in %v — wrote %s]\n\n", telemetry.WallSince(start).Round(time.Millisecond), path)
	return nil
}

// runScale runs hfl.Engine on fleet populations up to 1M devices × 10k edges
// ({dense, stream} mobility × the shard sweep per cell, every row of a cell
// bit-identical) and writes BENCH_scale.json. -quick swaps in the
// seconds-scale smoke preset; -shards overrides the preset's shard sweep.
func runScale(outDir string, quick bool, shards string, profiles *bench.ProfileMeta) error {
	start := telemetry.WallNow()
	preset := bench.ScaleBenchPreset()
	if quick {
		preset = bench.ScaleBenchQuickPreset()
	}
	if shards != "" {
		sweep, err := parseShardSweep(shards)
		if err != nil {
			return err
		}
		preset.Shards = sweep
	}
	r, err := bench.RunScaleBench(preset)
	if err != nil {
		return err
	}
	r.Profiles = profiles
	if err := bench.RenderScaleBench(os.Stdout, r); err != nil {
		return err
	}
	return writeBenchJSON(outDir, "BENCH_scale.json", start, r.WriteScaleBenchJSON)
}

// parseShardSweep parses the -shards flag: comma-separated positive shard
// counts, e.g. "1,4,16".
func parseShardSweep(s string) ([]int, error) {
	var sweep []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -shards entry %q (want positive integers, e.g. 1,4,16)", part)
		}
		sweep = append(sweep, n)
	}
	return sweep, nil
}

// runComm measures the distributed stack's wire traffic per codec scheme
// (real bytes counted on every connection) and writes BENCH_comm.json.
func runComm(outDir string, profiles *bench.ProfileMeta) error {
	start := telemetry.WallNow()
	r, err := bench.RunCommBench(bench.CommBenchPreset())
	if err != nil {
		return err
	}
	r.Profiles = profiles
	if err := bench.RenderCommBench(os.Stdout, r); err != nil {
		return err
	}
	return writeBenchJSON(outDir, "BENCH_comm.json", start, r.WriteCommBenchJSON)
}

// runTelemetry measures the observability overhead (off vs metrics vs spans
// vs full trace vs a live /metrics scrape load) on one fleet cell of the
// scale experiment and writes BENCH_telemetry.json. -quick swaps in the
// seconds-scale smoke preset.
func runTelemetry(outDir string, quick bool, profiles *bench.ProfileMeta) error {
	start := telemetry.WallNow()
	preset := bench.TelemetryBenchPreset()
	if quick {
		preset = bench.TelemetryBenchQuickPreset()
	}
	r, err := bench.RunTelemetryBench(preset)
	if err != nil {
		return err
	}
	r.Profiles = profiles
	if err := bench.RenderTelemetryBench(os.Stdout, r); err != nil {
		return err
	}
	return writeBenchJSON(outDir, "BENCH_telemetry.json", start, r.WriteTelemetryBenchJSON)
}

func runTable1(cfg bench.Config) error {
	start := telemetry.WallNow()
	r, err := bench.RunTable1(cfg)
	if err != nil {
		return err
	}
	if err := bench.RenderTable1(os.Stdout, r); err != nil {
		return err
	}
	fmt.Printf("[table1 %s done in %v]\n\n", cfg.Task, telemetry.WallSince(start).Round(time.Millisecond))
	return nil
}
