// Command benchmark is the repo's end-to-end and per-layer benchmark: it
// drives the real hfl.Engine and the real fed loopback cluster through four
// named workloads, measures them from outside, and checks their outputs.
// BENCHMARK.json at the repo root is its contract and README.md its manual.
//
//	go run ./benchmark -seed 1                      every workload, timed + traced
//	go run ./benchmark -workload paper_cnn -trace 0 one timed run, result on the last line
//	go run ./benchmark -compare [-agree] a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/telemetry"
)

// maxProcs caps GOMAXPROCS so results from boxes with many cores stay
// comparable with the 2-core reference box.
const maxProcs = 4

// procs is the GOMAXPROCS every workload run pins: min(nproc, maxProcs).
func procs() int { return min(runtime.NumCPU(), maxProcs) }

// probeSlice is how long one probe sample repeats its call.
const probeSlice = 100 * time.Millisecond

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print its result as the last line (default: all, each in a child process)")
		seed     = flag.Int64("seed", 1, "workload seed: drives the partition, the mobility source, model init and the engine")
		seconds  = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of the spec)")
		trace    = flag.Int("trace", 0, "0 = timed run, end-to-end metrics; 1 = traced run, per-layer metrics")
		out      = flag.String("out", "benchmark/out/result.json", "result file of an all-workloads run; its directory also receives span and snapshot files")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark contract")
		compare  = flag.Bool("compare", false, "compare two result files against the spec's bounds: -compare [-agree] a.json b.json")
		agree    = flag.Bool("agree", false, "with -compare: symmetric check that two sets of runs of one commit agree")
	)
	flag.Parse()
	code, err := run(*name, *seed, *seconds, *trace, *out, *specPath, *compare, *agree, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

func run(name string, seed int64, seconds float64, trace int, out, specPath string, compare, agree bool, args []string) (int, error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return 1, err
	}
	if compare {
		if len(args) != 2 {
			return 2, fmt.Errorf("-compare needs two result files, got %d", len(args))
		}
		return compareFiles(os.Stdout, sp, args[0], args[1], agree)
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	outDir := filepath.Dir(out)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 1, err
	}
	if name == "" {
		return runAll(sp, seed, seconds, out, specPath)
	}
	w, err := workloadByName(name)
	if err != nil {
		return 2, err
	}
	if err := keepFreedPages(); err != nil {
		return 1, err
	}
	runtime.GOMAXPROCS(procs())
	budget := time.Duration(seconds * float64(time.Second))
	var res runResult
	if trace == 0 {
		res, err = w.timed(os.Stdout, sp, seed, budget)
	} else {
		res, err = w.tracedRun(os.Stdout, sp, seed, budget, probeSlice, outDir)
	}
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	return 0, nil
}

// keepFreedPages makes sure the process runs with GODEBUG=madvdontneed=0,
// re-executing itself once if it does not. Between two episodes the previous
// world is garbage; the runtime's scavenger hands part of it back to the
// kernel and the next episode faults it in again — 75k–130k faults per
// fleet_stream episode, 0.3–1.5 s of a 4 s episode at this VM's 3.6–14 µs a
// fault, and an artefact of repeating episodes in one process that a single
// real run never sees. With madvdontneed=0 the scavenger frees lazily
// (MADV_FREE) and pages reused before the kernel wants them back fault no
// more (measured: < 10k). Peak RSS is a high-water mark and does not change.
func keepFreedPages() error {
	const setting = "madvdontneed=0"
	debug := os.Getenv("GODEBUG")
	if strings.Contains(debug, "madvdontneed=") {
		return nil
	}
	if debug != "" {
		debug += ","
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(self, os.Args, append(os.Environ(), "GODEBUG="+debug+setting))
}

// tally counts operations for failed_share: budgeted steps and correctness
// checks attempted, and how many of them failed.
type tally struct {
	w                 io.Writer
	attempted, failed int
}

// steps accounts for one episode's step budget.
func (t *tally) steps(budget, done int) {
	t.attempted += budget
	t.failed += budget - done
}

// check accounts for one correctness check and reports a failure.
func (t *tally) check(ok bool, what string) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(t.w, "CHECK FAILED: %s\n", what)
	}
}

// untracedEpisode is the mk argument of episodes for telemetry-off episodes.
func untracedEpisode() (*telemetry.Telemetry, *recorder) { return nil, nil }

// episodes runs the workload's episode back to back, at least atLeast times and
// then for as long as one more of the last one's length still fits the
// budget. mk supplies each episode's telemetry sink and recorder. A failed
// Run ends the loop with its steps accounted.
func (w *workload) episodes(t *tally, seed int64, atLeast int, budget time.Duration, mk func() (*telemetry.Telemetry, *recorder)) ([]*episode, error) {
	var eps []*episode
	start := telemetry.WallNow()
	for {
		epStart := telemetry.WallNow()
		tel, rec := mk()
		ep, err := w.runEpisode(seed, tel, rec)
		if ep == nil {
			return nil, err // set-up failed: there is nothing to measure
		}
		t.steps(w.cfg.Steps, ep.steps)
		if err != nil {
			fmt.Fprintf(t.w, "RUN FAILED: %v\n", err)
			return eps, nil
		}
		eps = append(eps, ep)
		if len(eps) >= atLeast && telemetry.WallSince(start)+telemetry.WallSince(epStart) > budget {
			return eps, nil
		}
	}
}

// checkOutputs applies the correctness checks every run makes on its
// episodes' outputs: a sane final evaluation, the accuracy target reached,
// every episode bit-identical to the first (they share the seed), and over
// fed the wire bytes really measured.
func (w *workload) checkOutputs(t *tally, eps []*episode) {
	first := eps[0]
	last := first.history.Points[first.history.Len()-1]
	t.check(!math.IsNaN(last.Loss) && !math.IsInf(last.Loss, 0) && last.Accuracy >= w.floor,
		fmt.Sprintf("final loss %v finite and final accuracy %.4f >= floor %.2f", last.Loss, last.Accuracy, w.floor))
	toTarget, reached := w.stepsToTarget(first)
	t.check(reached, fmt.Sprintf("accuracy target %.2f reached within %d steps", w.target, toTarget))
	for i, ep := range eps[1:] {
		t.check(sameOutputs(first, ep), fmt.Sprintf("episode %d bit-identical to episode 0 (same seed; telemetry must not perturb)", i+1))
	}
	if w.hosts > 0 {
		c := first.comm
		t.check(c.Measured && c.DeviceUplinkBytes > 0 && c.DeviceDownlinkBytes > 0 && c.CloudBytes > 0,
			fmt.Sprintf("wire bytes measured on all three segments (%+v)", c))
	}
}

// timed is a -trace 0 run: telemetry off, end-to-end metrics. The first
// episode warms the process up (README.md, "Load model") and is left out of
// the medians unless it is the only one.
func (w *workload) timed(out io.Writer, sp *spec, seed int64, budget time.Duration) (runResult, error) {
	t := &tally{w: out}
	eps, err := w.episodes(t, seed, 2, budget, untracedEpisode)
	if err != nil {
		return runResult{}, err
	}
	if len(eps) == 0 {
		return runResult{}, fmt.Errorf("%s: no episode completed", w.name)
	}
	w.checkOutputs(t, eps)
	measured := eps[min(1, len(eps)-1):]
	samples := make([]map[string]float64, len(measured))
	info := make([]map[string]float64, len(measured))
	for i, ep := range measured {
		samples[i] = w.endToEnd(ep)
		info[i] = w.runInfo(ep, eps[0])
	}
	values := medians(samples)
	if values["setup_s"], err = w.setupMedian(seed, measured); err != nil {
		return runResult{}, err
	}
	if values["peak_rss_mb"], err = peakRSSMiB(); err != nil {
		return runResult{}, err
	}
	fmt.Fprintf(out, "%s seed=%d episodes=1+%d steps/episode=%d gomaxprocs=%d num_cpu=%d measured_wire=%v\n",
		w.name, seed, len(eps)-1, w.cfg.Steps, procs(), runtime.NumCPU(), eps[0].comm.Measured)
	for i, ep := range eps {
		fmt.Fprintf(out, "  episode %d: setup %.3f s, run %.3f s, cpu %.3f s\n", i, ep.setupS, ep.runWallS, ep.cpuS)
	}
	// The run.* values are not in the result line: their spread across seeds
	// is wider than any bound a gate could use (README.md, "what is gated"),
	// so traced runs report them as per-layer metrics instead.
	runInfo := medians(info)
	for _, k := range det.SortedKeys(runInfo) {
		fmt.Fprintf(out, "  %-34s %16.6g (not gated)\n", k, runInfo[k])
	}
	return finish(out, t, sp.EndToEnd, values)
}

// Set-up is short next to an episode (35 ms on the 100-device workloads), so
// the episodes' few samples of it are topped up with set-up-only repetitions:
// up to setupSamples in all, for at most setupBudget.
const (
	setupSamples = 9
	setupBudget  = 2 * time.Second
)

// setupMedian is setup_s: the median set-up time over the measured episodes
// and the extra set-up-only repetitions.
func (w *workload) setupMedian(seed int64, measured []*episode) (float64, error) {
	var samples []float64
	for _, ep := range measured {
		samples = append(samples, ep.setupS)
	}
	for start := telemetry.WallNow(); len(samples) < setupSamples && telemetry.WallSince(start) < setupBudget; {
		s, err := w.setupOnly(seed)
		if err != nil {
			return 0, err
		}
		samples = append(samples, s)
	}
	return median(samples), nil
}

// tracedRun is a -trace 1 run: layer probes, a warm-up episode, one untraced
// reference episode, then traced episodes whose outputs must match the
// reference bit for bit.
func (w *workload) tracedRun(out io.Writer, sp *spec, seed int64, budget, slice time.Duration, outDir string) (runResult, error) {
	t := &tally{w: out}
	in, err := w.buildInputs(seed, nil, -1)
	if err != nil {
		return runResult{}, err
	}
	values, codecExact, err := runProbes(w, in, seed, slice)
	if err != nil {
		return runResult{}, err
	}
	t.check(codecExact, "codec probe round-trips bit-exactly")

	plain, err := w.episodes(t, seed, 2, 0, untracedEpisode)
	if err != nil {
		return runResult{}, err
	}
	if len(plain) < 2 {
		return runResult{}, fmt.Errorf("%s: reference episode failed", w.name)
	}
	warmup, ref := plain[0], plain[1]
	rec := newRecorder(fmt.Sprintf("%s-seed%d", w.name, seed))
	eps, err := w.episodes(t, seed, 1, budget, func() (*telemetry.Telemetry, *recorder) {
		tel := telemetry.New()
		tel.EnableSpans(true)
		return tel, rec
	})
	if err != nil {
		return runResult{}, err
	}
	if len(eps) == 0 {
		return runResult{}, fmt.Errorf("%s: no traced episode completed", w.name)
	}
	w.checkOutputs(t, append(plain, eps...))

	samples := make([]map[string]float64, len(eps))
	for i, ep := range eps {
		samples[i] = w.traced(ep, ref)
	}
	for _, layer := range []map[string]float64{w.runInfo(ref, warmup), untraced(ref), medians(samples)} {
		for _, k := range det.SortedKeys(layer) {
			values[k] = layer[k]
		}
	}

	if err := writeSpans(filepath.Join(outDir, w.name+".spans.jsonl"), rec.spans); err != nil {
		return runResult{}, err
	}
	snap, err := json.MarshalIndent(eps[len(eps)-1].snap, "", "  ")
	if err != nil {
		return runResult{}, err
	}
	if err := os.WriteFile(filepath.Join(outDir, w.name+".snapshot.json"), snap, 0o644); err != nil {
		return runResult{}, err
	}
	fmt.Fprintf(out, "%s seed=%d traced_episodes=%d spans=%d gomaxprocs=%d num_cpu=%d\n",
		w.name, seed, len(eps), len(rec.spans), procs(), runtime.NumCPU())
	self := selfByName(rec.spans)
	for _, name := range det.SortedKeys(self) {
		fmt.Fprintf(out, "  self %-16s %10.3f ms\n", name, float64(self[name])/1e6)
	}
	return finish(out, t, sp.PerLayer, values)
}

// finish names the values by the spec, prints them, and closes the tally.
func finish(out io.Writer, t *tally, defs []specMetric, values map[string]float64) (runResult, error) {
	metrics, err := named(defs, values)
	if err != nil {
		return runResult{}, err
	}
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(out, "  %-34s %16.6g fraction\n", "failed_share", float64(t.failed)/float64(t.attempted))
	return runResult{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}
