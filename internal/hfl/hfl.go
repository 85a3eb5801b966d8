// Package hfl implements the paper's hierarchical federated learning system
// (Algorithm 1) over mobile devices: Bernoulli device sampling under edge
// channel capacities (Eq. 3), local SGD updating (Eq. 4), unbiased
// inverse-probability edge aggregation (Eq. 5), and periodic edge-to-cloud
// aggregation (Eq. 6). Device mobility enters through a mobility.StepSource —
// the realized indicator B^t_{n,m}, one step at a time — so every edge trains
// on a different, time-varying device set.
//
// Each time step splits into a decision phase — strategy probabilities and
// every Bernoulli coin drawn from per-edge RNG streams in member order, with
// independent edges deciding in parallel — and a parallel execution phase
// that dispatches one task per edge to a bounded worker pool shared across
// edges; the task trains the edge's sampled devices and folds their uploads
// in member order, so runs are bit-identical for every worker count (see DESIGN.md,
// "Concurrency & determinism model" and "Scale model").
package hfl

import (
	"fmt"
	"math/rand"
	"runtime"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/parallel"
	"github.com/mach-fl/mach/internal/sampling"
)

// ArchFunc constructs the model architecture. The engine calls it once; the
// evaluation replicas and the pooled trainers are clones of that network, and
// parameters flow between cloud, edges and trainers as flat vectors.
type ArchFunc func(rng *rand.Rand) (*nn.Network, error)

// Config parameterizes one HFL training run.
type Config struct {
	// Steps is T, the number of FL time steps.
	Steps int
	// CloudInterval is T_g, the number of time steps between edge-to-cloud
	// communications.
	CloudInterval int
	// LocalEpochs is I, the number of local SGD steps per sampled device
	// per time step (Eq. 4).
	LocalEpochs int
	// BatchSize is the local minibatch size |ξ|.
	BatchSize int
	// LearningRate is the device learning rate γ.
	LearningRate float64
	// Participation is the expected fraction of all devices training per
	// step; the per-edge capacity is K_n = Participation·|M|/|N| (the
	// paper's "average of all edge channel capacity", §IV-A2).
	Participation float64
	// EvalEvery evaluates the global model every EvalEvery steps
	// (0 = every cloud round).
	EvalEvery int
	// Seed drives every random choice of the run.
	Seed int64
	// Aggregation selects the edge aggregation rule applied to unbiased
	// strategies (active-selection strategies like class-balance always
	// use AggPlain). See the Aggregation constants.
	Aggregation Aggregation
	// UploadFailureProb drops a sampled device's model after local
	// training with this probability, modelling the mobility-induced
	// disconnections of Feng et al. (the paper's reliability reference
	// [42]): a device that moves away mid-step cannot upload to the edge
	// that sampled it. Training experience is still recorded on the device
	// (it trained); only the upload is lost. 0 disables failures.
	UploadFailureProb float64
	// Workers bounds the worker pool that executes the per-edge training
	// tasks and evaluation shards (0 = runtime.GOMAXPROCS). All random
	// decisions are made before work is dispatched and each edge folds its
	// uploads in member order, so results are bit-identical for every value.
	Workers int
	// Lane selects the numeric compute lane for local training (DESIGN.md
	// §10). LaneF64 (the default) is the reference engine, bit-identical
	// to the seed at every worker count. LaneF32 runs forward/backward in
	// float32 with float64 master weights and float64 accumulation at
	// every aggregation boundary (optimizer update, loss, gradient norms,
	// edge/cloud averaging, evaluation); it is bit-identical to itself
	// across worker counts and tracks the f64 trajectory within float32
	// tolerance. Probing, evaluation and aggregation always run f64.
	Lane Lane
	// FuseBatch is f32 slot fusion (DESIGN.md §10): an edge's sampled
	// devices occupy the slots of one strided f32 executor and step
	// through the architecture together, layer by layer, instead of one at
	// a time. The f64 lane ignores it; either way the execution task is one
	// edge. Per-device update semantics, RNG streams and gradients are
	// unchanged — fused results are bit-identical to unfused. Default off.
	FuseBatch bool
	// Shards partitions the control plane into this many in-process shards
	// (0 = 1), each a contiguous range of edges with its own task group
	// (DESIGN.md §11). Shards run decide → execute → finalize for
	// their edges concurrently; results are bit-identical for every value,
	// because each edge's step lives in its own plan and the collect point
	// and the cloud reduce read the plans in edge order after the step's
	// fan-out returns. Values above the edge count are clamped.
	Shards int
}

// Lane selects the numeric compute lane for local training.
type Lane int

// Compute lanes.
const (
	// LaneF64 is the float64 reference lane (default).
	LaneF64 Lane = iota
	// LaneF32 is the float32 compute lane with float64 accumulation
	// boundaries.
	LaneF32
)

// String implements fmt.Stringer.
func (l Lane) String() string {
	switch l {
	case LaneF64:
		return "f64"
	case LaneF32:
		return "f32"
	default:
		return fmt.Sprintf("lane(%d)", int(l))
	}
}

// ParseLane parses the -lane flag values "f64" and "f32".
func ParseLane(s string) (Lane, error) {
	switch s {
	case "f64", "":
		return LaneF64, nil
	case "f32":
		return LaneF32, nil
	default:
		return LaneF64, fmt.Errorf("hfl: unknown lane %q (want f64 or f32)", s)
	}
}

// Aggregation selects how sampled local models merge into the edge model.
type Aggregation int

// Edge aggregation modes.
const (
	// AggInverseUpdate applies the inverse-probability weights of Eq. (5)
	// to the model *updates*: w_n ← w_n + Σ 1/(|M|q)·(w_m − w_n). It has
	// the same expectation as Eq. (5) (Lemma 1) without the multiplicative
	// norm noise of the literal model-space form, and keeps the gradient
	// estimate exactly unbiased. This is the theory-faithful mode.
	AggInverseUpdate Aggregation = iota + 1
	// AggPlain averages the sampled local models weighted by local dataset
	// size |D_m| (a plain mean when sizes are equal, as dataset.Partition
	// makes them), the standard FedAvg-over-participants rule used by
	// practical FL systems (Oort, Fed-CBS, the biased-selection analysis of
	// Cho et al.). Under a tilted sampling strategy the expected update is
	// biased toward high-probability devices, which is precisely the
	// boosting effect that makes loss/norm-guided selection fast in
	// practice. The benchmark presets use this mode; DESIGN.md §1 records
	// the choice.
	AggPlain
	// AggLiteralEq5 is the paper's Eq. (5) verbatim in model space:
	// w_n ← Σ 1/(|M|q)·w_m. When the realized Σ 1/(|M|q) deviates from 1
	// the whole edge model is rescaled — the instability §III-B2 warns
	// about. An empty sample carries w_n over instead of the formula's
	// Σ = 0, so E[w_n'] is the member mean plus P(∅)·w_n, not Lemma 1's
	// mean alone. Exposed for the aggregation ablation bench.
	AggLiteralEq5
)

// String implements fmt.Stringer.
func (a Aggregation) String() string {
	switch a {
	case AggInverseUpdate:
		return "inverse-update"
	case AggPlain:
		return "plain"
	case AggLiteralEq5:
		return "literal-eq5"
	default:
		return fmt.Sprintf("aggregation(%d)", int(a))
	}
}

// DefaultConfig mirrors the paper's MNIST/FMNIST setup at simulator scale.
func DefaultConfig() Config {
	return Config{
		Steps:         100,
		CloudInterval: 5,
		LocalEpochs:   10,
		BatchSize:     8,
		LearningRate:  0.01,
		Participation: 0.5,
		Seed:          1,
		Aggregation:   AggInverseUpdate,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Steps <= 0:
		return fmt.Errorf("hfl: steps %d must be positive", c.Steps)
	case c.CloudInterval <= 0:
		return fmt.Errorf("hfl: cloud interval %d must be positive", c.CloudInterval)
	case c.LocalEpochs <= 0:
		return fmt.Errorf("hfl: local epochs %d must be positive", c.LocalEpochs)
	case c.BatchSize <= 0:
		return fmt.Errorf("hfl: batch size %d must be positive", c.BatchSize)
	case c.LearningRate <= 0:
		return fmt.Errorf("hfl: learning rate %v must be positive", c.LearningRate)
	case c.Participation <= 0 || c.Participation > 1:
		return fmt.Errorf("hfl: participation %v outside (0,1]", c.Participation)
	case c.EvalEvery < 0:
		return fmt.Errorf("hfl: eval interval %d negative", c.EvalEvery)
	case c.Aggregation != 0 && (c.Aggregation < AggInverseUpdate || c.Aggregation > AggLiteralEq5):
		return fmt.Errorf("hfl: unknown aggregation mode %d", c.Aggregation)
	case c.UploadFailureProb < 0 || c.UploadFailureProb >= 1:
		return fmt.Errorf("hfl: upload failure probability %v outside [0,1)", c.UploadFailureProb)
	case c.Workers < 0:
		return fmt.Errorf("hfl: workers %d negative", c.Workers)
	case c.Lane != LaneF64 && c.Lane != LaneF32:
		return fmt.Errorf("hfl: unknown compute lane %d", int(c.Lane))
	case c.Shards < 0:
		return fmt.Errorf("hfl: shards %d negative", c.Shards)
	}
	return nil
}

// shardCount returns the effective control-plane shard count: Config.Shards
// (0 = 1) clamped to the edge count, so every shard owns at least one edge.
func (c Config) shardCount(edges int) int {
	return min(max(c.Shards, 1), edges)
}

// workers returns the configured worker count, defaulting to GOMAXPROCS.
func (c Config) workers() int {
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// Engine runs Algorithm 1 in process: the cloud's half (Cloud) plus the
// edges — their models, sampling decisions and local training.
type Engine struct {
	*Cloud
	strategy sampling.Strategy
	// observer is the strategy's Observer side, nil when it does not learn
	// from experience; pulls then counts each device's observed time steps,
	// the estimator's exploration state reported at cloud rounds.
	observer sampling.Observer
	pulls    []int

	// A device is its local data, data[m] (dists[m] caches its label
	// distribution): a local update starts from the edge model and draws at
	// its det.DeviceBatch key, on a trainer (lane.go) lent to the task.
	data  []*dataset.Dataset
	dists [][]float64

	edge [][]float64 // edge model parameters w^t_n

	// trainers lends local-update state (lane.go) to a pool task or a probe
	// for its duration: at most Workers + Shards exist, whatever the devices.
	trainers *TrainerPool

	// Sharded control plane (DESIGN.md §11): shards[s] owns a contiguous
	// edge range.
	shards []*shardState

	// pool executes the edge tasks and evaluation shards while a Run is
	// active; nil otherwise.
	pool *parallel.Pool

	// The pool tasks of an edge's execution phase (trainEdge on a borrowed
	// trainer) and of a shard's step, one func each for every step.
	edgeTask  func(n int)
	shardTask func(s int)

	// Steady-state scratch. plans[n] and decide[n] are private to edge n's
	// owning shard during a step and to the Run goroutine between steps.
	plans   []edgePlan        // per-edge decision-phase output
	decide  []edgeDecideState // per-edge pooled RNG + context + buffers
	aggNext [][]float64       // per-edge fold target, swapped with edge[n]
	// The step's observation batch, gathered from the plans at the collect
	// point: (edge, device, norm window) records in edge then member order.
	obsEdges []int
	obsDevs  []int
	obsNorms [][]float64
}

// edgeDecideState is one edge's pooled decision-phase machinery: a reusable
// RNG reseeded to the edge's per-step stream, the strategy context (with its
// scratch buffer), and the probability output buffer. Pooling them removes
// the per-step rand.New/EdgeContext/probability allocations from the hot
// control path.
type edgeDecideState struct {
	rng   *rand.Rand
	ctx   sampling.EdgeContext
	probs []float64

	// The traced decision's sampled and dropped devices, filled by the
	// sequential accounting pass when it emits the decision.
	sampledIDs []int
	droppedIDs []int
}

// New assembles an engine. deviceData holds one local dataset per device and
// must match the mobility source's device count; test is the held-out global
// test set; src and test are checked as NewCloud checks them.
func New(cfg Config, arch ArchFunc, deviceData []*dataset.Dataset, test *dataset.Dataset, src mobility.StepSource, strategy sampling.Strategy) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cloud, err := NewCloud(cfg, arch, src, test)
	if err != nil {
		return nil, err
	}
	if len(deviceData) != cloud.nDevices {
		return nil, fmt.Errorf("hfl: %d device datasets for %d scheduled devices", len(deviceData), cloud.nDevices)
	}
	if strategy == nil {
		return nil, fmt.Errorf("hfl: nil strategy")
	}
	if cfg.Lane == LaneF32 {
		// Fail at construction, not mid-run, when the architecture holds a
		// layer the float32 lane cannot execute.
		if _, err := nn.NewLane32(cloud.evalNet, 1); err != nil {
			return nil, fmt.Errorf("hfl: float32 lane: %w", err)
		}
	}
	e := &Engine{
		Cloud:    cloud,
		strategy: strategy,
		data:     append([]*dataset.Dataset(nil), deviceData...),
		dists:    make([][]float64, len(deviceData)),
		trainers: NewTrainerPool(cloud.evalNet, test),
	}
	if obs, ok := strategy.(sampling.Observer); ok {
		e.observer, e.pulls = obs, make([]int, cloud.nDevices)
	}
	for m, data := range deviceData {
		if data == nil || data.Len() == 0 {
			return nil, fmt.Errorf("hfl: device %d has no data", m)
		}
		e.dists[m] = data.ClassDistribution()
	}
	e.edge = make([][]float64, cloud.nEdges)
	for n := range e.edge {
		e.edge[n] = append([]float64(nil), e.global...)
	}
	e.plans = make([]edgePlan, cloud.nEdges)
	e.decide = make([]edgeDecideState, cloud.nEdges)
	e.aggNext = make([][]float64, cloud.nEdges)
	for n := range e.aggNext {
		e.aggNext[n] = make([]float64, len(e.global))
	}
	e.edgeTask = func(n int) {
		tr := e.trainers.Borrow(e.cfg.BatchSize)
		defer e.trainers.Release(tr)
		e.trainEdge(n, tr)
	}
	e.shardTask = func(s int) { e.shards[s].runStep() }
	shards := cfg.shardCount(cloud.nEdges)
	e.shards = make([]*shardState, shards)
	for s := range e.shards {
		e.shards[s] = &shardState{e: e, id: s, lo: cloud.nEdges * s / shards, hi: cloud.nEdges * (s + 1) / shards}
	}
	return e, nil
}
