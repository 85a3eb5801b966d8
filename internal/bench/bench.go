// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (see DESIGN.md §3 for the index):
//
//   - Figure 3  — time-to-accuracy curves, 5 strategies × 3 tasks
//   - Figure 4  — time to target accuracy vs number of edges {2, 5, 10}
//   - Figure 5  — time to target accuracy vs participation {0.4…0.7}
//   - Table I   — time steps under local epochs {0.8I, I, 1.2I} at the 70%
//     and full targets, with MACH's saved-time percentage
//
// Experiments run at two scales: ScaleCI (tiny models, minutes on a laptop
// core, used by the Go benchmarks) and ScaleFull (the paper's topology with
// the CNN architectures, used by cmd/machbench).
package bench

import (
	"fmt"
	"math/rand"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
)

// Task names one of the three learning tasks of the evaluation.
type Task string

// The evaluation's learning tasks (synthetic stand-ins; DESIGN.md §1).
const (
	TaskMNIST   Task = "mnist"
	TaskFMNIST  Task = "fmnist"
	TaskCIFAR10 Task = "cifar10"
)

// AllTasks lists the evaluation's tasks in the paper's order.
func AllTasks() []Task { return []Task{TaskMNIST, TaskFMNIST, TaskCIFAR10} }

// Scale selects the experiment size.
type Scale string

// Experiment scales.
const (
	// ScaleCI shrinks devices/model/steps so each run takes seconds.
	ScaleCI Scale = "ci"
	// ScaleFull is the paper's topology (10 edges, 100 devices, CNNs).
	ScaleFull Scale = "full"
)

// Strategy names accepted by the harness.
const (
	StratUniform      = "uniform"
	StratClassBalance = "class-balance"
	StratStatistical  = "statistical"
	StratMACH         = "mach"
	StratMACHP        = "mach-p"
)

// AllStrategies lists every compared strategy, MACH last.
func AllStrategies() []string {
	return []string{StratUniform, StratClassBalance, StratStatistical, StratMACH, StratMACHP}
}

// Baselines lists the non-MACH strategies of Table I (US, CS, SS).
func Baselines() []string {
	return []string{StratUniform, StratClassBalance, StratStatistical}
}

// Config fully describes one experiment cell.
type Config struct {
	Task             Task
	Model            string // "mlp" or "cnn"
	ImageSize        int    // square input side
	Edges            int
	Devices          int
	StationsPerEdge  int
	Steps            int
	CloudInterval    int
	LocalEpochs      int
	BatchSize        int
	LearningRate     float64
	Participation    float64
	TailRatio        float64
	GlobalTailRatio  float64
	NoisyDevices     float64 // fraction of devices with corrupted labels
	NoisyLabels      float64 // corrupted-label fraction within a noisy device
	MobilitySpeed    float64 // multiplier on waypoint speeds (1 = default)
	SamplesPerDevice int
	TestSamples      int
	TargetAccuracy   float64
	EvalEvery        int    // evaluation cadence in steps (0 = every cloud round)
	TestLaw          string // "balanced" (paper's standard test sets) or "global" (matches the long-tailed train mixture)
	SmoothWindow     int    // moving-average window (in eval points) applied before reading time-to-target
	Runs             int    // independent repetitions to average
	Seed             int64
	Aggregation      hfl.Aggregation
	MACH             sampling.MACHConfig
	Lane             string // compute lane for local updates: "f64" (default) or "f32"
	FuseBatch        bool   // f32 lane: an edge's sampled devices share lane slots
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	switch {
	case c.Model != "mlp" && c.Model != "cnn":
		return fmt.Errorf("bench: unknown model %q", c.Model)
	case c.ImageSize < 4:
		return fmt.Errorf("bench: image size %d too small", c.ImageSize)
	case c.Edges <= 0 || c.Devices <= 0 || c.Steps <= 0 || c.Runs <= 0:
		return fmt.Errorf("bench: edges/devices/steps/runs must be positive")
	case c.TargetAccuracy <= 0 || c.TargetAccuracy >= 1:
		return fmt.Errorf("bench: target accuracy %v outside (0,1)", c.TargetAccuracy)
	}
	return nil
}

// TaskPreset returns the experiment configuration of one task at one scale,
// mirroring §IV-A2: 10 edges, 100 mobile devices, 50% participation, T_g=5
// for MNIST/FMNIST and T_g=10 for CIFAR-10, I=10 local epochs, long-tailed
// non-IID device data. Step counts and model sizes are reduced at ScaleCI.
func TaskPreset(task Task, scale Scale) Config {
	cfg := Config{
		Task:             task,
		Model:            "cnn",
		ImageSize:        16,
		Edges:            10,
		Devices:          100,
		StationsPerEdge:  4,
		CloudInterval:    5,
		LocalEpochs:      10,
		BatchSize:        8,
		LearningRate:     0.05,
		Participation:    0.5,
		TailRatio:        0.2,
		GlobalTailRatio:  0.6,
		NoisyDevices:     0.1,
		NoisyLabels:      0.25,
		MobilitySpeed:    1,
		SamplesPerDevice: 80,
		TestSamples:      1000,
		Runs:             3,
		Seed:             1,
		Aggregation:      hfl.AggPlain,
		MACH:             sampling.DefaultMACHConfig(),
	}
	switch task {
	case TaskMNIST:
		cfg.Steps = 400
		cfg.TargetAccuracy = 0.75
	case TaskFMNIST:
		cfg.Steps = 500
		cfg.TargetAccuracy = 0.65
	case TaskCIFAR10:
		cfg.Steps = 800
		cfg.CloudInterval = 10
		cfg.TargetAccuracy = 0.60
	}
	if scale == ScaleCI {
		cfg.Model = "mlp"
		cfg.ImageSize = 8
		cfg.Edges = 5
		cfg.Devices = 30
		cfg.StationsPerEdge = 3
		cfg.SamplesPerDevice = 50
		cfg.TestSamples = 1000
		cfg.LocalEpochs = 5
		cfg.EvalEvery = 1
		cfg.SmoothWindow = 5
		cfg.Runs = 3
		switch task {
		case TaskMNIST:
			cfg.Steps = 250
			cfg.TargetAccuracy = 0.74
		case TaskFMNIST:
			cfg.Steps = 350
			cfg.TargetAccuracy = 0.62
		case TaskCIFAR10:
			cfg.Steps = 400
			cfg.TargetAccuracy = 0.38
		}
	}
	return cfg
}

// taskSpec maps a Task to its synthetic dataset spec at the config's size.
func (c Config) taskSpec() dataset.TaskSpec {
	switch c.Task {
	case TaskFMNIST:
		return dataset.FMNISTLike(c.ImageSize, c.ImageSize)
	case TaskCIFAR10:
		return dataset.CIFAR10Like(c.ImageSize, c.ImageSize)
	default:
		return dataset.MNISTLike(c.ImageSize, c.ImageSize)
	}
}

// Arch returns the model constructor for the config: the paper's 2-conv CNN
// for MNIST/FMNIST, the 3-conv CNN for CIFAR-10, or a small MLP at CI scale.
func (c Config) Arch() hfl.ArchFunc {
	spec := c.taskSpec()
	if c.Model == "mlp" {
		in := spec.InC * spec.InH * spec.InW
		return func(rng *rand.Rand) (*nn.Network, error) {
			return nn.NewMLP(string(c.Task)+"-mlp", in, []int{32}, spec.Classes, rng), nil
		}
	}
	var cnnCfg nn.CNNConfig
	if c.Task == TaskCIFAR10 {
		cnnCfg = nn.CIFARCNNConfig(spec.InH, spec.InW)
	} else {
		cnnCfg = nn.MNISTCNNConfig(spec.InH, spec.InW)
	}
	return func(rng *rand.Rand) (*nn.Network, error) {
		return nn.NewCNN(cnnCfg, rng)
	}
}

// NewStrategy instantiates a named strategy for the config.
func (c Config) NewStrategy(name string) (sampling.Strategy, error) {
	switch name {
	case StratUniform:
		return sampling.NewUniform(), nil
	case StratClassBalance:
		return sampling.NewClassBalance(), nil
	case StratStatistical:
		return sampling.NewStatistical(c.Devices, c.MACH.QMin)
	case StratMACH:
		return sampling.NewMACH(c.Devices, c.MACH)
	case StratMACHP:
		return sampling.NewMACHP(c.MACH)
	default:
		return nil, fmt.Errorf("bench: unknown strategy %q", name)
	}
}

// Environment is the realized experiment world of one run: the non-IID
// device datasets, the shared test set and the mobility schedule. Strategies
// being compared share the same environment so differences come from
// sampling alone.
type Environment struct {
	DeviceData []*dataset.Dataset
	Test       *dataset.Dataset
	Schedule   *mobility.Schedule
}

// BuildEnvironment realizes the experiment world for one run index.
func (c Config) BuildEnvironment(run int) (*Environment, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	seed := c.Seed + int64(run)*7919
	task, err := dataset.NewTask(c.taskSpec())
	if err != nil {
		return nil, fmt.Errorf("bench: build task: %w", err)
	}
	parts, err := dataset.Partition(task, dataset.PartitionConfig{
		Devices:             c.Devices,
		SamplesPerDevice:    c.SamplesPerDevice,
		TailRatio:           c.TailRatio,
		GlobalTailRatio:     c.GlobalTailRatio,
		NoisyDeviceFraction: c.NoisyDevices,
		NoisyLabelFraction:  c.NoisyLabels,
		Seed:                seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: partition devices: %w", err)
	}
	// The default test set is class-balanced, like the standard MNIST /
	// FMNIST / CIFAR-10 test sets the paper evaluates on; TestLaw "global"
	// instead matches the long-tailed training mixture (the literal
	// objective of Eq. 2) for the ablation benches.
	var testLaw []float64
	if c.TestLaw == "global" {
		testLaw = make([]float64, task.Spec.Classes)
		for _, d := range parts {
			for cls, p := range d.ClassDistribution() {
				testLaw[cls] += p / float64(len(parts))
			}
		}
	}
	test, err := task.Generate(rand.New(rand.NewSource(seed+1)), c.TestSamples, testLaw)
	if err != nil {
		return nil, fmt.Errorf("bench: build test set: %w", err)
	}
	wcfg := mobility.DefaultWaypoint()
	if c.MobilitySpeed > 0 {
		wcfg.SpeedMin *= c.MobilitySpeed
		wcfg.SpeedMax *= c.MobilitySpeed
	}
	sched, err := mobility.GenerateScheduleWaypoint(seed+2, c.Edges, c.Devices, c.Steps, c.StationsPerEdge, wcfg)
	if err != nil {
		return nil, fmt.Errorf("bench: build schedule: %w", err)
	}
	return &Environment{DeviceData: parts, Test: test, Schedule: sched}, nil
}

// HFLConfig converts the bench config to an engine config for one run.
// An unparseable Lane string is deferred to hfl.Config.Validate via an
// out-of-range value rather than swallowed here.
func (c Config) HFLConfig(run int) hfl.Config {
	lane, err := hfl.ParseLane(c.Lane)
	if err != nil {
		lane = hfl.Lane(-1)
	}
	return hfl.Config{
		Steps:         c.Steps,
		CloudInterval: c.CloudInterval,
		LocalEpochs:   c.LocalEpochs,
		BatchSize:     c.BatchSize,
		LearningRate:  c.LearningRate,
		Participation: c.Participation,
		EvalEvery:     c.EvalEvery,
		Seed:          c.Seed + int64(run)*7919 + 3,
		Aggregation:   c.Aggregation,
		Lane:          lane,
		FuseBatch:     c.FuseBatch,
	}
}

// StrategyResult is the outcome of running one strategy on one config.
type StrategyResult struct {
	Strategy string
	// History is the run-averaged accuracy curve.
	History *metrics.History
	// TimeToTarget is the first step of the averaged curve reaching the
	// config's target accuracy; Reached is false if it never does (in
	// which case TimeToTarget holds the step budget).
	TimeToTarget int
	Reached      bool
	// FinalAccuracy of the averaged curve.
	FinalAccuracy float64
}

// RunStrategy executes cfg.Runs independent runs of one strategy (fresh
// strategy state per run, shared environments across strategies via the run
// seeds) and averages the curves.
func RunStrategy(cfg Config, name string) (*StrategyResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	histories := make([]*metrics.History, 0, cfg.Runs)
	for run := 0; run < cfg.Runs; run++ {
		env, err := cfg.BuildEnvironment(run)
		if err != nil {
			return nil, err
		}
		strat, err := cfg.NewStrategy(name)
		if err != nil {
			return nil, err
		}
		eng, err := hfl.New(cfg.HFLConfig(run), cfg.Arch(), env.DeviceData, env.Test, env.Schedule, strat)
		if err != nil {
			return nil, fmt.Errorf("bench: run %d: %w", run, err)
		}
		res, err := eng.Run()
		if err != nil {
			return nil, fmt.Errorf("bench: run %d: %w", run, err)
		}
		histories = append(histories, res.History)
	}
	avg := metrics.AverageHistories(histories)
	if cfg.SmoothWindow > 1 {
		avg = avg.Smoothed(cfg.SmoothWindow)
	}
	out := &StrategyResult{
		Strategy:      name,
		History:       avg,
		FinalAccuracy: avg.FinalAccuracy(),
	}
	if step, ok := avg.TimeToAccuracy(cfg.TargetAccuracy); ok {
		out.TimeToTarget, out.Reached = step, true
	} else {
		out.TimeToTarget = cfg.Steps
	}
	return out, nil
}

// Comparison holds the results of all strategies on one config.
type Comparison struct {
	Config  Config
	Results []*StrategyResult
}

// RunComparison runs every strategy in names on the config.
func RunComparison(cfg Config, names []string) (*Comparison, error) {
	cmp := &Comparison{Config: cfg}
	for _, name := range names {
		res, err := RunStrategy(cfg, name)
		if err != nil {
			return nil, fmt.Errorf("bench: strategy %s: %w", name, err)
		}
		cmp.Results = append(cmp.Results, res)
	}
	return cmp, nil
}

// Result returns the named strategy's result, or nil.
func (c *Comparison) Result(name string) *StrategyResult {
	for _, r := range c.Results {
		if r.Strategy == name {
			return r
		}
	}
	return nil
}

// SavedPercent computes the headline metric: percentage of time steps MACH
// saves against the best of the given baselines (only counting baselines
// that reached the target).
func (c *Comparison) SavedPercent(baselines []string) float64 {
	mach := c.Result(StratMACH)
	if mach == nil || !mach.Reached {
		return 0
	}
	var steps []int
	for _, b := range baselines {
		if r := c.Result(b); r != nil && r.Reached {
			steps = append(steps, r.TimeToTarget)
		}
	}
	return metrics.SavedPercent(mach.TimeToTarget, steps)
}
