// Package mach is the public facade of the MACH library — a from-scratch Go
// implementation of "Mobility-aware Device Sampling for Statistical
// Heterogeneity in Hierarchical Federated Learning" (ICDCS 2024).
//
// The library simulates hierarchical federated learning over mobile devices:
// a cloud coordinates edges, edges coordinate the time-varying set of mobile
// devices attached to them, and a device-sampling strategy decides, per edge
// and per time step, which devices train. The headline strategy is MACH —
// upper-confidence-bound experience updating plus smoothed edge sampling —
// alongside the uniform, class-balance, statistical, and perfect-information
// baselines of the paper's evaluation.
//
// Typical use:
//
//	task, _ := mach.NewTask(mach.MNISTLike(16, 16))
//	devices, _ := mach.Partition(task, mach.PartitionConfig{
//		Devices: 100, SamplesPerDevice: 80, TailRatio: 0.2, Seed: 1,
//	})
//	test, _ := task.Generate(rand.New(rand.NewSource(2)), 1000, nil)
//	schedule, _ := mach.GenerateSchedule(3, 10, 100, 400, 4)
//	strategy, _ := mach.NewMACH(100, mach.DefaultMACHConfig())
//	engine, _ := mach.NewEngine(mach.DefaultEngineConfig(), arch, devices, test, schedule, strategy)
//	result, _ := engine.Run(mach.WithTarget(0.75))
//
// The sub-systems are available directly for advanced use:
//
//   - internal/tensor, internal/nn — the neural-network substrate
//   - internal/dataset — synthetic tasks and non-IID partitioning
//   - internal/mobility — traces, mobility models, edge clustering
//   - internal/sampling — the Strategy interface and all strategies
//   - internal/hfl — the hierarchical FL engine (Algorithm 1)
//   - internal/bench — the evaluation harness (Figures 3-5, Table I)
package mach

import (
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
)

// Datasets and partitioning.
type (
	// Task is an instantiated synthetic learning task.
	Task = dataset.Task
	// TaskSpec describes a synthetic class-conditional image task.
	TaskSpec = dataset.TaskSpec
	// Dataset is an in-memory labelled image dataset.
	Dataset = dataset.Dataset
	// PartitionConfig controls the non-IID device partition.
	PartitionConfig = dataset.PartitionConfig
)

// Mobility.
type (
	// Schedule is the realized mobility indicator B^t.
	Schedule = mobility.Schedule
	// StepSource streams per-step attachments from an O(Devices) window;
	// *Schedule satisfies it, so dense and streaming planes are
	// interchangeable wherever an engine takes mobility input.
	StepSource = mobility.StepSource
	// Move is one device reattachment in a StepSource's per-step stream.
	Move = mobility.Move
	// TraceSource streams attachments from a time-sorted trace file.
	TraceSource = mobility.TraceSource
	// TraceSourceConfig parameterizes a streaming trace reader.
	TraceSourceConfig = mobility.TraceSourceConfig
	// OnlineTransitionStats fits edge-transition statistics from a move
	// stream, O(moves) per step.
	OnlineTransitionStats = mobility.OnlineTransitionStats
	// Trace is a collection of base-station access records.
	Trace = mobility.Trace
	// Record is one base-station access interval.
	Record = mobility.Record
	// Station is a base station at a fixed position.
	Station = mobility.Station
	// WaypointConfig, MarkovConfig and LevyConfig parameterize the mobility
	// models.
	WaypointConfig = mobility.WaypointConfig
	MarkovConfig   = mobility.MarkovConfig
	LevyConfig     = mobility.LevyConfig
)

// Sampling.
type (
	// Strategy computes per-edge device sampling probabilities into a
	// caller-owned buffer: Name, Unbiased and ProbabilitiesInto(ctx, dst)
	// are the whole contract.
	Strategy = sampling.Strategy
	// EdgeContext is the information a strategy sees per edge per step,
	// plus the Estimates/Floor outputs it may report back.
	EdgeContext = sampling.EdgeContext
	// MACHConfig parameterizes the MACH strategy.
	MACHConfig = sampling.MACHConfig
)

// Training.
type (
	// Engine runs hierarchical federated learning (Algorithm 1).
	Engine = hfl.Engine
	// EngineConfig parameterizes one training run.
	EngineConfig = hfl.Config
	// ArchFunc constructs the model architecture.
	ArchFunc = hfl.ArchFunc
	// Result summarizes one training run.
	Result = hfl.Result
	// RunOption customizes a call to Engine.Run.
	RunOption = hfl.RunOption
	// History is a training curve with time-to-accuracy helpers.
	History = metrics.History
	// Network is a trainable neural network.
	Network = nn.Network
)

// Dataset constructors.
var (
	// NewTask realizes the class prototypes of a task spec.
	NewTask = dataset.NewTask
	// MNISTLike, FMNISTLike and CIFAR10Like are the evaluation's three
	// synthetic tasks in increasing difficulty.
	MNISTLike   = dataset.MNISTLike
	FMNISTLike  = dataset.FMNISTLike
	CIFAR10Like = dataset.CIFAR10Like
	// Partition draws one long-tailed non-IID local dataset per device.
	Partition = dataset.Partition
)

// Mobility constructors.
var (
	// GenerateSchedule builds a waypoint-mobility schedule in one call.
	GenerateSchedule = mobility.GenerateSchedule
	// GenerateWaypointTrace and GenerateMarkovTrace simulate telecom-style
	// access traces.
	GenerateWaypointTrace = mobility.GenerateWaypointTrace
	GenerateMarkovTrace   = mobility.GenerateMarkovTrace
	// ClusterStations groups base stations into edges with k-means.
	ClusterStations = mobility.ClusterStations
	// BuildSchedule converts a trace into the per-step edge schedule.
	BuildSchedule = mobility.BuildSchedule
	// DefaultWaypoint, DefaultMarkov and DefaultLevy are calibrated
	// mobility-model configurations.
	DefaultWaypoint = mobility.DefaultWaypoint
	DefaultMarkov   = mobility.DefaultMarkov
	DefaultLevy     = mobility.DefaultLevy
	// NewMarkovSource, NewWaypointSource and NewLevySource are the streaming
	// (O(Devices)-memory) counterparts of the dense schedule generators.
	NewMarkovSource   = mobility.NewMarkovSource
	NewWaypointSource = mobility.NewWaypointSource
	NewLevySource     = mobility.NewLevySource
	// NewTraceSource streams attachments from a time-sorted CSV/NDJSON trace.
	NewTraceSource = mobility.NewTraceSource
	// Materialize drains a StepSource into a dense Schedule.
	Materialize = mobility.Materialize
	// ApplyMoves replays one step's move stream onto an attachment row.
	ApplyMoves = mobility.ApplyMoves
	// NewOnlineTransitionStats builds an incremental transition estimator;
	// attach it with Engine.SetTransitionStats.
	NewOnlineTransitionStats = mobility.NewOnlineTransitionStats
)

// Strategy constructors.
var (
	// NewMACH returns the paper's mobility-aware sampling strategy.
	NewMACH = sampling.NewMACH
	// NewMACHP returns the perfect-information variant (probes true
	// gradient norms).
	NewMACHP = sampling.NewMACHP
	// NewUniform, NewClassBalance and NewStatistical are the baselines.
	NewUniform      = sampling.NewUniform
	NewClassBalance = sampling.NewClassBalance
	NewStatistical  = sampling.NewStatistical
	// NewOort is the Oort-style utility-selection extension.
	NewOort = sampling.NewOort
	// DefaultMACHConfig returns the benchmark MACH configuration.
	DefaultMACHConfig = sampling.DefaultMACHConfig
)

// Engine constructors and options.
var (
	// NewEngine assembles a training engine.
	NewEngine = hfl.New
	// DefaultEngineConfig mirrors the paper's MNIST setup at simulator
	// scale.
	DefaultEngineConfig = hfl.DefaultConfig
	// WithTarget stops a run at the first evaluation reaching the target.
	WithTarget = hfl.WithTarget
	// WithEvalHook and WithStepHook observe a run in progress.
	WithEvalHook = hfl.WithEvalHook
	WithStepHook = hfl.WithStepHook
)

// Aggregation modes (see hfl.Aggregation).
const (
	// AggInverseUpdate applies Eq. (5)'s inverse-probability weights to
	// model updates (unbiased, theory-faithful).
	AggInverseUpdate = hfl.AggInverseUpdate
	// AggPlain averages sampled models FedAvg-style (practical default).
	AggPlain = hfl.AggPlain
	// AggLiteralEq5 is the paper's Eq. (5) verbatim in model space.
	AggLiteralEq5 = hfl.AggLiteralEq5
)
