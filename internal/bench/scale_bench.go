package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
)

// ScaleCell is one population shape of the scale benchmark.
type ScaleCell struct {
	Devices int `json:"devices"`
	Edges   int `json:"edges"`
	// StreamOnly omits every dense-mobility row of the cell: only the
	// streaming StepSource rows run. This is how the long-horizon headline
	// cell stays feasible — a dense Schedule is Steps×Devices ints, which
	// at 1M devices × 200 steps is ~1.6 GB of resident attachment matrix,
	// while the streaming window holds O(Devices) regardless of horizon.
	StreamOnly bool `json:"stream_only,omitempty"`
	// Steps, when positive, overrides the config-level measured step count
	// for this cell (warm-up is unchanged). Used by the long-horizon
	// streaming cell, whose point is the horizon itself.
	Steps int `json:"steps,omitempty"`
}

// ScaleConfig parameterizes `machbench -exp scale`: hfl.Engine itself, run at
// fleet populations on a deliberately tiny learning problem — every device
// shares one 4-sample dataset and a sampled device trains a 50-parameter MLP
// for one single-sample SGD step — so a row is dominated by what grows with
// the population (mobility advance, per-edge decide, experience updating,
// edge aggregation, the shard actors) and not by the math kernels.
type ScaleConfig struct {
	// Cells are the (devices, edges) shapes measured; each gets one row per
	// mobility plane (dense, stream) and shard count.
	Cells []ScaleCell `json:"cells"`
	// Steps is the measured step count; WarmupSteps run first so pooled
	// buffers reach steady state before the measured window opens.
	Steps       int `json:"steps"`
	WarmupSteps int `json:"warmup_steps"`
	// CloudInterval is T_g, the experience-folding period (Algorithm 2).
	CloudInterval int `json:"cloud_interval"`
	// StayProb is the per-step edge stay probability of the Markov mobility
	// model; 1-StayProb is the expected fraction of devices the member
	// indexes' delta path must repair each step.
	StayProb float64 `json:"stay_prob"`
	// Participation sets the per-edge capacity K_n =
	// Participation·Devices/Edges (hfl.Config.Participation).
	Participation float64 `json:"participation"`
	// Workers is hfl.Config.Workers (0 = GOMAXPROCS).
	Workers int   `json:"workers"`
	Seed    int64 `json:"seed"`
	// Shards is the hfl.Config.Shards sweep (empty = one shard). The engine
	// clamps a count to its cloud-reduce group count, min(edges, 64); rows
	// record the effective value.
	Shards []int `json:"shards,omitempty"`
}

// ScaleBenchPreset is the recorded sweep of BENCH_scale.json: device
// populations 1k/10k/100k with proportional edge counts, an edge-count sweep
// at 10k devices, a city-scale cell (100k devices × 3k edges — the
// Shanghai-Telecom trace the paper evaluates on has ~3k base stations) and
// the million-device shape at two horizons.
func ScaleBenchPreset() ScaleConfig {
	return ScaleConfig{
		Cells: []ScaleCell{
			{Devices: 1_000, Edges: 10},
			{Devices: 10_000, Edges: 10},
			{Devices: 10_000, Edges: 100},
			{Devices: 10_000, Edges: 1_000},
			{Devices: 100_000, Edges: 1_000},
			{Devices: 100_000, Edges: 3_000},
			{Devices: 1_000_000, Edges: 10_000},
			// The long-horizon headline: 200 measured steps at the
			// million-device shape. Dense mobility would need a
			// ~1.6 GB schedule matrix for this cell; only the streaming
			// O(Devices) window runs it.
			{Devices: 1_000_000, Edges: 10_000, StreamOnly: true, Steps: 200},
		},
		Steps:         30,
		WarmupSteps:   5,
		CloudInterval: 5,
		StayProb:      0.9,
		Participation: 0.1,
		Seed:          1,
		Shards:        []int{1, 4, 16},
	}
}

// ScaleBenchQuickPreset is a seconds-scale smoke configuration for CI.
func ScaleBenchQuickPreset() ScaleConfig {
	cfg := ScaleBenchPreset()
	cfg.Cells = []ScaleCell{{Devices: 500, Edges: 5}, {Devices: 2_000, Edges: 20}}
	cfg.Steps = 10
	cfg.WarmupSteps = 2
	cfg.Shards = []int{1, 2}
	return cfg
}

// Validate reports whether the configuration is usable.
func (c ScaleConfig) Validate() error {
	switch {
	case len(c.Cells) == 0:
		return fmt.Errorf("bench: scale config has no cells")
	case c.Steps <= 0 || c.WarmupSteps < 0:
		return fmt.Errorf("bench: scale steps %d/%d invalid", c.Steps, c.WarmupSteps)
	case c.CloudInterval <= 0:
		return fmt.Errorf("bench: scale cloud interval %d must be positive", c.CloudInterval)
	case c.StayProb < 0 || c.StayProb > 1:
		return fmt.Errorf("bench: scale stay probability %v outside [0,1]", c.StayProb)
	case c.Participation <= 0 || c.Participation > 1:
		return fmt.Errorf("bench: scale participation %v outside (0,1]", c.Participation)
	case c.Workers < 0:
		return fmt.Errorf("bench: scale workers %d negative", c.Workers)
	}
	for _, cell := range c.Cells {
		if cell.Devices <= 0 || cell.Edges <= 0 {
			return fmt.Errorf("bench: scale cell %d devices × %d edges invalid", cell.Devices, cell.Edges)
		}
		if cell.Steps < 0 {
			return fmt.Errorf("bench: scale cell %d×%d step override %d negative", cell.Devices, cell.Edges, cell.Steps)
		}
	}
	for _, s := range c.Shards {
		if s <= 0 {
			return fmt.Errorf("bench: scale shard count %d must be positive", s)
		}
	}
	return nil
}

// ScaleBenchRow is one (cell, mobility plane, shard count) engine run.
type ScaleBenchRow struct {
	Devices int `json:"devices"`
	Edges   int `json:"edges"`
	// Mobility is "dense" (materialized Steps×Devices Schedule matrix) or
	// "stream" (O(Devices) StepSource window advanced by move deltas) — the
	// dense rows Materialize the very MarkovSource the streaming rows consume.
	Mobility string `json:"mobility"`
	// MobilityResidentBytes is the heap held by the mobility plane alone —
	// a GC'd HeapAlloc delta bracketing schedule/source construction. Dense
	// rows grow with Steps×Devices; streaming rows stay O(Devices).
	MobilityResidentBytes int64 `json:"mobility_resident_bytes"`
	// Shards is the effective shard-actor count of the run.
	Shards        int `json:"shards"`
	StepsMeasured int `json:"steps_measured"`
	// NsPerStep is the mean of the engine's step_ns histogram over the
	// measured window.
	NsPerStep int64 `json:"ns_per_step"`
	// StepNs, DecideNs, TrainNs and AggregateNs are the engine's own phase
	// histograms over the measured window, per step and per device of the
	// population. The engine observes decide/train/aggregate once per shard
	// per step and shards run side by side, so each is the mean over shards —
	// the reading the benchmark's hfl.*_share rows use; StepNs minus the three
	// is mobility advance, cloud reduce, the step barrier and accounting.
	StepNs      float64 `json:"step_ns"`
	DecideNs    float64 `json:"decide_ns"`
	TrainNs     float64 `json:"train_ns"`
	AggregateNs float64 `json:"aggregate_ns"`
	// AllocsPerStep and BytesPerStep are MemStats deltas over the window.
	AllocsPerStep float64 `json:"allocs_per_step"`
	BytesPerStep  float64 `json:"bytes_per_step"`
	// SampledPerStep is the mean number of devices trained per step.
	SampledPerStep float64 `json:"sampled_per_step"`
}

// ScaleBenchResult is the payload of BENCH_scale.json.
type ScaleBenchResult struct {
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	NumCPU     int             `json:"num_cpu"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Config     ScaleConfig     `json:"config"`
	Rows       []ScaleBenchRow `json:"rows"`
	// Profiles names the pprof files captured with this run, if any.
	Profiles *ProfileMeta `json:"profiles,omitempty"`
}

// fleetArch is the model of every fleet cell: a 50-parameter MLP over
// fleetData's five features.
func fleetArch(rng *rand.Rand) (*nn.Network, error) {
	return nn.NewMLP("fleet-mlp", 5, []int{6}, 2, rng), nil
}

// fleetData is the one 4-sample, 2-class dataset that every device of a fleet
// cell holds and that doubles as its test set.
func fleetData() (*dataset.Dataset, error) {
	d := dataset.NewDataset("fleet", 1, 1, 5, 2)
	for i := 0; i < 4; i++ {
		x := make([]float64, d.SampleLen())
		for j := range x {
			x[j] = float64((3*i+j)%7) / 7
		}
		if err := d.Append(x, i%2); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// newFleet assembles hfl.Engine for one population cell of the scale and
// telemetry benchmarks and returns it with the mobility plane's resident
// bytes. cfg.Steps is the measured window; the run covers warm-up too and
// ends on its one evaluation.
func newFleet(cfg ScaleConfig, cell ScaleCell, streaming bool, shards int) (*hfl.Engine, int64, error) {
	steps := cfg.WarmupSteps + cfg.Steps
	// Bracket mobility-plane construction with GC'd MemStats snapshots so
	// the row records what the schedule (dense) or window (streaming) alone
	// keeps resident. The second GC also collects the drained MarkovSource
	// in the dense case, leaving only the matrix in the delta.
	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	ms, err := mobility.NewMarkovSource(cfg.Seed, cell.Edges, cell.Devices, steps, cfg.StayProb)
	if err != nil {
		return nil, 0, err
	}
	var src mobility.StepSource = ms
	if !streaming {
		if src, err = mobility.Materialize(ms); err != nil {
			return nil, 0, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&msAfter)
	mobilityBytes := max(int64(msAfter.HeapAlloc)-int64(msBefore.HeapAlloc), 0)

	strat, err := sampling.NewMACH(cell.Devices, sampling.DefaultMACHConfig())
	if err != nil {
		return nil, 0, err
	}
	// Pre-warm every device with one folded window-sized observation, as a
	// long-running training would have: the measured window then exercises
	// the steady state (estimates from history, experience buffers at
	// capacity) instead of the cold-start transient of first-time buffer
	// growth.
	edge, dev, warm := []int{0}, []int{0}, [][]float64{{1, 1, 1, 1}}
	for m := 0; m < cell.Devices; m++ {
		dev[0] = m
		strat.ObserveBatch(0, edge, dev, warm)
	}
	strat.CloudRound(0)

	data, err := fleetData()
	if err != nil {
		return nil, 0, err
	}
	deviceData := make([]*dataset.Dataset, cell.Devices)
	for m := range deviceData {
		deviceData[m] = data
	}
	hcfg := hfl.DefaultConfig()
	hcfg.Steps = steps
	hcfg.EvalEvery = steps
	hcfg.CloudInterval = cfg.CloudInterval
	hcfg.LocalEpochs, hcfg.BatchSize = 1, 1
	hcfg.Participation = cfg.Participation
	hcfg.Seed = cfg.Seed
	hcfg.Workers = cfg.Workers
	hcfg.Shards = shards
	eng, err := hfl.New(hcfg, fleetArch, deviceData, data, src, strat)
	return eng, mobilityBytes, err
}

// fleetWindow is what measure reads off one Engine.Run: the run's outcome
// (for the cross-row bit-identity checks) and the measured window's cost.
type fleetWindow struct {
	res    *hfl.Result
	global []float64
	// wall is stopwatch time over the window: the only clock the telemetry
	// bench's "off" tier has, and the one its tiers are compared on.
	wall           time.Duration
	allocs, bytes  float64 // per measured step
	shards         int     // effective shard count (0 without telemetry)
	step           float64 // mean step_ns over the window
	decide, train  float64 // mean per-shard phase ns per step
	aggregate      float64
	sampledPerStep float64
}

// measure runs eng to completion with tel attached (nil = none) and reports
// the window that opens when the last warm-up step's edges have finalized
// and closes when Run returns. The phase costs are the difference of two
// telemetry snapshots; the tail of the last warm-up step (its cloud round
// when one is due, and its step_ns observation) falls inside the window,
// identically in every row and tier.
func measure(eng *hfl.Engine, tel *telemetry.Telemetry, warmup int) (*fleetWindow, error) {
	eng.SetTelemetry(tel)
	var m0, m1 runtime.MemStats
	var before *telemetry.Snapshot
	var start time.Time
	open := func() {
		before = tel.Snapshot()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start = telemetry.WallNow()
	}
	if warmup == 0 {
		open()
	}
	res, err := eng.Run(hfl.WithStepHook(func(step, _ int) {
		if step == warmup-1 {
			open()
		}
	}))
	if err != nil {
		return nil, err
	}
	w := &fleetWindow{res: res, global: eng.GlobalParams(), wall: telemetry.WallSince(start)}
	runtime.ReadMemStats(&m1)
	after := tel.Snapshot()
	steps := float64(res.StepsRun - warmup)
	w.allocs = float64(m1.Mallocs-m0.Mallocs) / steps
	w.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / steps
	sampled := 0
	for _, n := range res.SampledPerStep[warmup:] {
		sampled += n
	}
	w.sampledPerStep = float64(sampled) / steps
	mean := func(name string) float64 {
		a, b := after.Histograms[name], before.Histograms[name]
		if a.Count == b.Count {
			return 0
		}
		return float64(a.Sum-b.Sum) / float64(a.Count-b.Count)
	}
	w.shards = len(after.Shards)
	w.step, w.decide, w.train, w.aggregate = mean("step_ns"), mean("decide_ns"), mean("train_ns"), mean("aggregate_ns")
	return w, nil
}

// sameRun reports whether two runs of a cell ended on Float64bits-identical
// global models and evaluations after training the same number of devices at
// every step.
func sameRun(a, b *fleetWindow) bool {
	return bitIdentical(a.res.History, b.res.History, a.global, b.global) &&
		slices.Equal(a.res.SampledPerStep, b.res.SampledPerStep)
}

// RunScaleBench runs every cell on both mobility planes at every shard
// count. Beyond the costs, it is an end-to-end determinism check on the
// engine that ships: all rows of a cell must end on bit-identical global
// models with identical per-step sampled counts — the dense rows materialize
// the very MarkovSource the streaming rows consume, so this is the
// streaming-vs-dense and the cross-shard bit-identity gate at fleet scale.
func RunScaleBench(cfg ScaleConfig) (*ScaleBenchResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &ScaleBenchResult{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config:     cfg,
	}
	sweep := cfg.Shards
	if len(sweep) == 0 {
		sweep = []int{1}
	}
	for _, cell := range cfg.Cells {
		// A cell-level step override changes only this cell's horizon.
		ccfg := cfg
		if cell.Steps > 0 {
			ccfg.Steps = cell.Steps
		}
		mobilities := []string{"dense", "stream"}
		if cell.StreamOnly {
			mobilities = mobilities[1:]
		}
		var ref *fleetWindow
		for _, mob := range mobilities {
			for _, shards := range sweep {
				what := fmt.Sprintf("bench: scale %d×%d %s/%d shards", cell.Devices, cell.Edges, mob, shards)
				eng, mobilityBytes, err := newFleet(ccfg, cell, mob == "stream", shards)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", what, err)
				}
				w, err := measure(eng, telemetry.New(), ccfg.WarmupSteps)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", what, err)
				}
				if ref == nil {
					ref = w
				} else if !sameRun(ref, w) {
					return nil, fmt.Errorf("%s: global model or per-step sampled counts differ from the cell's first row — engine layouts diverged", what)
				}
				perDevice := 1 / float64(cell.Devices)
				res.Rows = append(res.Rows, ScaleBenchRow{
					Devices:               cell.Devices,
					Edges:                 cell.Edges,
					Mobility:              mob,
					MobilityResidentBytes: mobilityBytes,
					Shards:                w.shards,
					StepsMeasured:         ccfg.Steps,
					NsPerStep:             int64(w.step),
					StepNs:                w.step * perDevice,
					DecideNs:              w.decide * perDevice,
					TrainNs:               w.train * perDevice,
					AggregateNs:           w.aggregate * perDevice,
					AllocsPerStep:         w.allocs,
					BytesPerStep:          w.bytes,
					SampledPerStep:        w.sampledPerStep,
				})
			}
		}
	}
	return res, nil
}

// WriteScaleBenchJSON writes the result as indented JSON.
func (r *ScaleBenchResult) WriteScaleBenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RenderScaleBench prints the result as a text table.
func RenderScaleBench(w io.Writer, r *ScaleBenchResult) error {
	if _, err := fmt.Fprintf(w, "Engine scale benchmark — %s/%s, %d CPU (GOMAXPROCS=%d)\n",
		r.GOOS, r.GOARCH, r.NumCPU, r.GOMAXPROCS); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "config: steps=%d warmup=%d tg=%d stay=%.2f participation=%.2f workers=%d\n\n",
		r.Config.Steps, r.Config.WarmupSteps, r.Config.CloudInterval, r.Config.StayProb,
		r.Config.Participation, r.Config.Workers); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%9s %6s %7s %6s %6s %10s %9s | %8s %8s %8s %8s | %12s %13s %12s\n",
		"devices", "edges", "mob", "shards", "steps", "mob-bytes", "ms/step",
		"step", "decide", "train", "aggr", "allocs/step", "bytes/step", "sampled/step"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%59s | %35s |\n", "", "ns per device-step"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%9d %6d %7s %6d %6d %10s %9.2f | %8.1f %8.1f %8.1f %8.1f | %12.1f %13.0f %12.1f\n",
			row.Devices, row.Edges, row.Mobility, row.Shards, row.StepsMeasured,
			formatBytes(row.MobilityResidentBytes), float64(row.NsPerStep)/1e6,
			row.StepNs, row.DecideNs, row.TrainNs, row.AggregateNs,
			row.AllocsPerStep, row.BytesPerStep, row.SampledPerStep); err != nil {
			return err
		}
	}
	return nil
}

// formatBytes renders a byte count with a binary-prefix unit for the table.
func formatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
