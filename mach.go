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
// Typical use (an excerpt of examples/quickstart):
//
//	task, _ := mach.NewTask(mach.MNISTLike(8, 8))
//	parts, _ := mach.Partition(task, mach.PartitionConfig{
//		Devices: 24, SamplesPerDevice: 60, TailRatio: 0.25, Seed: 7,
//	})
//	test, _ := task.Generate(rand.New(rand.NewSource(8)), 500, nil)
//	schedule, _ := mach.GenerateSchedule(9, 4, 24, 80, 4)
//	strategy, _ := mach.NewMACH(24, mach.DefaultMACHConfig())
//	engine, _ := mach.NewEngine(cfg, arch, parts, test, schedule, strategy)
//	res, _ := engine.Run()
//
// The facade holds exactly what the programs under examples/ use: the
// quickstart above, a custom Strategy (customsampler), the evaluation
// presets and a telecom-style trace pipeline (mobility), the convergence
// bound of Theorem 1 (bound), and the same algorithm over RPC
// (distributed).
package mach

import (
	"github.com/mach-fl/mach/internal/bench"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/fed"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
)

// Types.
type (
	// Dataset is an in-memory labelled image dataset.
	Dataset = dataset.Dataset
	// PartitionConfig controls the non-IID device partition.
	PartitionConfig = dataset.PartitionConfig
	// Network is a trainable neural network.
	Network = nn.Network
	// Strategy computes per-edge device sampling probabilities into a
	// caller-owned buffer: Name, Unbiased and ProbabilitiesInto(ctx, dst)
	// are the whole contract.
	Strategy = sampling.Strategy
	// EdgeContext is the information a strategy sees per edge per step,
	// plus the Estimates/Floor outputs it may report back.
	EdgeContext = sampling.EdgeContext
	// EngineConfig parameterizes one training run.
	EngineConfig = hfl.Config
	// BoundParams holds the constants of Theorem 1's convergence bound.
	BoundParams = hfl.BoundParams
	// Hyper is the local-training setup an edge server sends its devices.
	Hyper = fed.Hyper
	// CloudConfig parameterizes the distributed cloud coordinator.
	CloudConfig = fed.CloudConfig
)

// Datasets and models.
var (
	// NewTask realizes the class prototypes of a task spec.
	NewTask = dataset.NewTask
	// MNISTLike is the evaluation's easiest synthetic task.
	MNISTLike = dataset.MNISTLike
	// Partition draws one long-tailed non-IID local dataset per device.
	Partition = dataset.Partition
	// NewMLP builds a multi-layer perceptron.
	NewMLP = nn.NewMLP
)

// Mobility.
var (
	// GenerateSchedule builds a waypoint-mobility schedule in one call.
	GenerateSchedule = mobility.GenerateSchedule
	// PlaceStations scatters base stations around urban cores, as
	// DefaultPlacement calibrates them.
	PlaceStations    = mobility.PlaceStations
	DefaultPlacement = mobility.DefaultPlacement
	// GenerateWaypointTrace simulates telecom-style access records under
	// the waypoint model DefaultWaypoint calibrates.
	GenerateWaypointTrace = mobility.GenerateWaypointTrace
	DefaultWaypoint       = mobility.DefaultWaypoint
	// ReadCSV parses a trace in the CSV interchange format.
	ReadCSV = mobility.ReadCSV
	// ClusterStations groups base stations into edges with k-means.
	ClusterStations = mobility.ClusterStations
	// BuildSchedule converts a trace into the per-step edge schedule.
	BuildSchedule = mobility.BuildSchedule
)

// Sampling.
var (
	// NewMACH returns the paper's mobility-aware sampling strategy.
	NewMACH = sampling.NewMACH
	// DefaultMACHConfig returns the benchmark MACH configuration.
	DefaultMACHConfig = sampling.DefaultMACHConfig
	// EdgeSamplingInto is MACH's edge sampling (Eqs. 16-18) on given
	// gradient-norm estimates.
	EdgeSamplingInto = sampling.EdgeSamplingInto
	// OptimalProbabilities is the exact minimizer of Σ G²/q.
	OptimalProbabilities = sampling.OptimalProbabilities
	// VarianceTerm evaluates Σ G²/q, the sampling-dependent term of
	// Theorem 1.
	VarianceTerm = sampling.VarianceTerm
)

// Training.
var (
	// NewEngine assembles a training engine (Algorithm 1).
	NewEngine = hfl.New
	// WithEvalHook observes a run's evaluations.
	WithEvalHook = hfl.WithEvalHook
	// Theorem1Bound evaluates the convergence bound of Eq. (9).
	Theorem1Bound = hfl.Theorem1Bound
)

// AggPlain averages sampled models FedAvg-style (practical default).
const AggPlain = hfl.AggPlain

// Evaluation presets.
const (
	// TaskMNIST is the evaluation's MNIST stand-in; ScaleCI its preset
	// shrunk to seconds per run.
	TaskMNIST = bench.TaskMNIST
	ScaleCI   = bench.ScaleCI
	// StratUniform, StratStatistical and StratMACH name strategies for
	// a preset's NewStrategy.
	StratUniform     = bench.StratUniform
	StratStatistical = bench.StratStatistical
	StratMACH        = bench.StratMACH
)

var (
	// TaskPreset returns the evaluation's configuration of a task at a
	// scale.
	TaskPreset = bench.TaskPreset
	// RenderCurveASCII plots an accuracy curve as text.
	RenderCurveASCII = bench.RenderCurveASCII
)

// Distributed deployment: device hosts, edge servers and the cloud
// coordinator speaking RPC.
var (
	NewDeviceServer = fed.NewDeviceServer
	NewEdgeServer   = fed.NewEdgeServer
	StaticResolver  = fed.StaticResolver
	NewCloud        = fed.NewCloud
)
