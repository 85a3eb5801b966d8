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
// that dispatches the sampled devices' local SGD to a bounded worker pool
// shared across edges. Aggregation then reduces uploads back in member
// order, so runs are bit-identical for every worker count (see DESIGN.md,
// "Concurrency & determinism model" and "Scale model").
package hfl

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/parallel"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
	"github.com/mach-fl/mach/internal/tensor"
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
	// LRDecay multiplies the learning rate after every cloud round
	// (1 = constant, the paper reports only an initial rate).
	LRDecay float64
	// Participation is the expected fraction of all devices training per
	// step; the per-edge capacity is K_n = Participation·|M|/|N| (the
	// paper's "average of all edge channel capacity", §IV-A2).
	Participation float64
	// EvalEvery evaluates the global model every EvalEvery steps
	// (0 = every cloud round).
	EvalEvery int
	// EvalBatch caps how many test samples are used per evaluation
	// (0 = all).
	EvalBatch int
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
	// Workers bounds the worker pool that executes per-device local
	// updates and evaluation shards (0 = runtime.GOMAXPROCS). All random
	// decisions are made before work is dispatched and results are reduced
	// in member order, so results are bit-identical for every value.
	Workers int
	// EvalShards splits test-set evaluation into this fixed number of
	// shards (0 = 8). The shard count — not the core count — determines
	// how losses are grouped in the reduction, so evaluation results do
	// not depend on the machine; sharding also bounds the peak im2col
	// footprint, which previously scaled with the whole test set.
	EvalShards int
	// Lane selects the numeric compute lane for local training (DESIGN.md
	// §10). LaneF64 (the default) is the reference engine, bit-identical
	// to the seed at every worker count. LaneF32 runs forward/backward in
	// float32 with float64 master weights and float64 accumulation at
	// every aggregation boundary (optimizer update, loss, gradient norms,
	// edge/cloud averaging, evaluation); it is bit-identical to itself
	// across worker counts and tracks the f64 trajectory within float32
	// tolerance. Probing, evaluation and aggregation always run f64.
	Lane Lane
	// FuseBatch sets the execution phase's task granularity (DESIGN.md
	// §10): one pool task trains all of an edge's sampled devices as a
	// group instead of one task per device. On the f32 lane the group's
	// devices step through the architecture together, layer by layer, in
	// the slots of one strided executor. Per-device update semantics, RNG
	// streams and gradients are unchanged — fused results are bit-identical
	// to unfused within the same lane. Default off.
	FuseBatch bool
	// Shards partitions the control plane into this many in-process shard
	// actors (0 = 1), each owning a contiguous range of edges plus that
	// range's member index, experience-observation buffering and
	// aggregation scratch (DESIGN.md §11). Shards run decide → execute →
	// finalize for their edges concurrently; results are bit-identical for
	// every value, because the cloud reduce folds over a fixed edge
	// grouping independent of the shard count and every cross-shard merge
	// happens in edge order at a deterministic barrier. Values above the
	// reduce-group count (min(edges, 64)) are clamped.
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
	// AggPlain averages the sampled local models with equal weights, the
	// standard FedAvg-over-participants rule used by practical FL systems
	// (Oort, Fed-CBS, the biased-selection analysis of Cho et al.). Under
	// a tilted sampling strategy the expected update is biased toward
	// high-probability devices, which is precisely the boosting effect
	// that makes loss/norm-guided selection fast in practice. The
	// benchmark presets use this mode; DESIGN.md §1 records the choice.
	AggPlain
	// AggLiteralEq5 is the paper's Eq. (5) verbatim in model space:
	// w_n ← Σ 1/(|M|q)·w_m. When the realized Σ 1/(|M|q) deviates from 1
	// the whole edge model is rescaled — the instability §III-B2 warns
	// about. Exposed for the aggregation ablation bench.
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
		LRDecay:       1,
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
	case c.LRDecay <= 0 || c.LRDecay > 1:
		return fmt.Errorf("hfl: lr decay %v outside (0,1]", c.LRDecay)
	case c.Participation <= 0 || c.Participation > 1:
		return fmt.Errorf("hfl: participation %v outside (0,1]", c.Participation)
	case c.EvalEvery < 0:
		return fmt.Errorf("hfl: eval interval %d negative", c.EvalEvery)
	case c.EvalBatch < 0:
		return fmt.Errorf("hfl: eval batch %d negative", c.EvalBatch)
	case c.Aggregation != 0 && (c.Aggregation < AggInverseUpdate || c.Aggregation > AggLiteralEq5):
		return fmt.Errorf("hfl: unknown aggregation mode %d", c.Aggregation)
	case c.UploadFailureProb < 0 || c.UploadFailureProb >= 1:
		return fmt.Errorf("hfl: upload failure probability %v outside [0,1)", c.UploadFailureProb)
	case c.Workers < 0:
		return fmt.Errorf("hfl: workers %d negative", c.Workers)
	case c.EvalShards < 0:
		return fmt.Errorf("hfl: eval shards %d negative", c.EvalShards)
	case c.Lane != LaneF64 && c.Lane != LaneF32:
		return fmt.Errorf("hfl: unknown compute lane %d", int(c.Lane))
	case c.Shards < 0:
		return fmt.Errorf("hfl: shards %d negative", c.Shards)
	}
	return nil
}

// shardCount returns the effective control-plane shard count: Config.Shards
// (0 = 1) clamped to the cloud-reduce group count, so every shard owns at
// least one whole group (and therefore at least one edge) and shard ranges
// stay group-aligned.
func (c Config) shardCount(groups int) int {
	s := c.Shards
	if s < 1 {
		s = 1
	}
	if s > groups {
		s = groups
	}
	return s
}

// defaultEvalShards fixes how many shards full-test-set evaluation splits
// into when Config.EvalShards is zero. It is a constant, not a function of
// the core count, so evaluation losses reduce identically on every machine.
const defaultEvalShards = 8

// evalShards returns the configured shard count, defaulting to
// defaultEvalShards.
func (c Config) evalShards() int {
	if c.EvalShards == 0 {
		return defaultEvalShards
	}
	return c.EvalShards
}

// workers returns the configured worker count, defaulting to GOMAXPROCS.
func (c Config) workers() int {
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// aggregation returns the configured mode, defaulting to AggInverseUpdate.
func (c Config) aggregation() Aggregation {
	if c.Aggregation == 0 {
		return AggInverseUpdate
	}
	return c.Aggregation
}

// device is what the paper says a device is between time steps: its local
// data, the RNG stream its minibatches are drawn from, and the cached label
// distribution of that data. Eq. (4) starts every local update from the edge
// model, so nothing a local update mutates belongs to the device; that state
// lives in a trainer (lane.go), lent to whichever task trains the device.
type device struct {
	data *dataset.Dataset
	rng  *rand.Rand
	dist []float64 // cached local label distribution
}

// Engine runs Algorithm 1.
type Engine struct {
	cfg      Config
	strategy sampling.Strategy
	// observer is the strategy's Observer side, nil when it does not learn
	// from experience; pulls then counts each device's observed time steps,
	// the estimator's exploration state reported at cloud rounds.
	observer sampling.Observer
	pulls    []int
	devices  []*device
	test     *dataset.Dataset

	// tel is the engine's observation sink; nil (the default) disables all
	// instrumentation at zero cost. Telemetry reads simulation state but
	// never feeds back into it (DESIGN.md §8).
	tel *telemetry.Telemetry

	// Streaming mobility plane (DESIGN.md §12): the engine positions itself
	// from a StepSource — a dense *Schedule via its adapter, or a true
	// streaming source — keeping only an O(Devices + Shards) window: the
	// current attachment row and the per-shard move buckets of the step.
	// nEdges/nDevices cache the source's Dims.
	win         *mobility.Window
	nEdges      int
	nDevices    int
	stepRebuilt bool              // last advance resynced from Snapshot
	shardMoves  [][]mobility.Move // per-shard buckets of the step's moves
	// transStats, when attached, folds the engine's move stream into an
	// incremental edge-transition model (observational only).
	transStats *mobility.OnlineTransitionStats

	global   []float64   // cloud model parameters w^t
	edge     [][]float64 // edge model parameters w^t_n
	evalNet  *nn.Network
	capacity float64 // K_n, identical across edges as in the paper
	lr       float64 // device learning rate γ, decayed at cloud rounds

	// trainers lends local-update state (lane.go) to a pool task or a probe
	// for its duration: at most Workers + Shards exist, whatever the devices.
	trainers *TrainerPool

	// Sharded control plane (DESIGN.md §11): shards[s] owns a contiguous
	// edge range with its slice of the member index; edgeShard maps each
	// edge to its owner. The actor goroutines (alive while actorsUp, i.e.
	// inside Run) synchronize with the engine exclusively through shardWG
	// barriers; actorDone tracks goroutine lifetime. groups is the
	// cloud-reduce group count cloudGroups(Edges) and groupCounts the
	// per-group member-count sums of the current cloud round.
	shards      []*shardState
	edgeShard   []int
	shardWG     sync.WaitGroup
	actorDone   sync.WaitGroup
	actorsUp    bool
	groups      int
	groupCounts []int

	// pool executes per-device local updates and evaluation shards while a
	// Run is active; nil otherwise (standalone evaluation falls back to
	// transient goroutines).
	pool *parallel.Pool

	// Steady-state scratch. plans[n] and decide[n] are private to edge n's
	// owning shard while a step command is in flight and to the engine
	// goroutine between commands.
	plans       []edgePlan        // per-edge decision-phase output
	decide      []edgeDecideState // per-edge pooled RNG + context + buffers
	aggNext     [][]float64       // per-edge aggregation double-buffer
	cloudNext   []float64         // cloud aggregation double-buffer
	cloudCounts []int             // per-edge member counts of the cloud round
	evalIdx     []int             // evaluation sample indices
	evalShard   []evalShardState
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

	// Trace buffers, filled during the (parallel) decide phase only when the
	// step's decisions are being traced, and read by the sequential finalize
	// phase, which emits them in edge order so trace output is deterministic.
	coins      []float64
	sampledIDs []int
	droppedIDs []int
}

// evalShardState is one evaluation shard's private network and batch
// buffers. Shard boundaries are a pure function of the test-set size and the
// fixed shard count, so in steady state the buffers are reused as-is.
type evalShardState struct {
	net *nn.Network
	x   *tensor.Tensor
	y   []int
}

// New assembles an engine. deviceData holds one local dataset per device and
// must match the mobility source's device count; test is the held-out global
// test set. src may be a dense *mobility.Schedule (its StepSource adapter
// replays the matrix) or a true streaming source — runs are bit-identical
// between a source and its Materialize'd twin.
func New(cfg Config, arch ArchFunc, deviceData []*dataset.Dataset, test *dataset.Dataset, src mobility.StepSource, strategy sampling.Strategy) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("hfl: nil schedule")
	}
	if s, ok := src.(*mobility.Schedule); ok {
		if s == nil {
			return nil, fmt.Errorf("hfl: nil schedule")
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("hfl: invalid schedule: %w", err)
		}
	}
	nEdges, nDevices, nSteps := src.Dims()
	if nEdges <= 0 || nDevices <= 0 || nSteps <= 0 {
		return nil, fmt.Errorf("hfl: mobility source dims %d/%d/%d must be positive", nEdges, nDevices, nSteps)
	}
	if len(deviceData) != nDevices {
		return nil, fmt.Errorf("hfl: %d device datasets for %d scheduled devices", len(deviceData), nDevices)
	}
	if nSteps < cfg.Steps {
		return nil, fmt.Errorf("hfl: schedule covers %d steps, config needs %d", nSteps, cfg.Steps)
	}
	if test == nil || test.Len() == 0 {
		return nil, fmt.Errorf("hfl: empty test set")
	}
	if strategy == nil {
		return nil, fmt.Errorf("hfl: nil strategy")
	}

	base, err := arch(rand.New(rand.NewSource(det.ModelInit(cfg.Seed))))
	if err != nil {
		return nil, fmt.Errorf("hfl: build architecture: %w", err)
	}
	if cfg.Lane == LaneF32 {
		// Fail at construction, not mid-run, when the architecture holds a
		// layer the float32 lane cannot execute.
		if _, err := nn.NewLane32(base, 1); err != nil {
			return nil, fmt.Errorf("hfl: float32 lane: %w", err)
		}
	}
	e := &Engine{
		cfg:      cfg,
		win:      mobility.NewWindow(src),
		nEdges:   nEdges,
		nDevices: nDevices,
		strategy: strategy,
		devices:  make([]*device, len(deviceData)),
		test:     test,
		global:   base.ParamVector(),
		evalNet:  base,
		trainers: NewTrainerPool(base, test),
		capacity: cfg.Participation * float64(nDevices) / float64(nEdges),
		lr:       cfg.LearningRate,
	}
	if obs, ok := strategy.(sampling.Observer); ok {
		e.observer, e.pulls = obs, make([]int, nDevices)
	}
	for m, data := range deviceData {
		if data == nil || data.Len() == 0 {
			return nil, fmt.Errorf("hfl: device %d has no data", m)
		}
		e.devices[m] = &device{
			data: data,
			rng:  det.NewRand(det.DeviceBatch(cfg.Seed, m)),
			dist: data.ClassDistribution(),
		}
	}
	e.edge = make([][]float64, nEdges)
	for n := range e.edge {
		e.edge[n] = append([]float64(nil), e.global...)
	}
	e.plans = make([]edgePlan, nEdges)
	e.decide = make([]edgeDecideState, nEdges)
	e.aggNext = make([][]float64, nEdges)
	e.groups = cloudGroups(nEdges)
	e.groupCounts = make([]int, e.groups)
	e.cloudCounts = make([]int, nEdges)
	shards := cfg.shardCount(e.groups)
	e.shards = make([]*shardState, shards)
	e.shardMoves = make([][]mobility.Move, shards)
	e.edgeShard = make([]int, nEdges)
	for s := range e.shards {
		e.shards[s] = newShardState(e, s, shards)
		for n := e.shards[s].lo; n < e.shards[s].hi; n++ {
			e.edgeShard[n] = s
		}
	}
	return e, nil
}

// Capacity returns K_n, the per-edge expected participation budget.
func (e *Engine) Capacity() float64 { return e.capacity }

// SetTelemetry attaches a telemetry sink (nil detaches). Call it before Run;
// attaching mid-run races with the step loop. Telemetry is observational
// only: the attached sink never changes what the engine computes, and
// identically-seeded runs are bit-identical with and without it.
func (e *Engine) SetTelemetry(t *telemetry.Telemetry) { e.tel = t }

// SaveCheckpoint writes the current global model so a run can be inspected
// or resumed in another process.
func (e *Engine) SaveCheckpoint(w io.Writer) error {
	if err := e.evalNet.SetParamVector(e.global); err != nil {
		return err
	}
	blob, err := e.evalNet.MarshalBinary()
	if err != nil {
		return fmt.Errorf("hfl: marshal checkpoint: %w", err)
	}
	if _, err := w.Write(blob); err != nil {
		return fmt.Errorf("hfl: write checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint restores a global model written by SaveCheckpoint into the
// cloud and every edge, so a subsequent Run continues from it.
func (e *Engine) LoadCheckpoint(r io.Reader) error {
	blob, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("hfl: read checkpoint: %w", err)
	}
	if err := e.evalNet.UnmarshalBinary(blob); err != nil {
		return fmt.Errorf("hfl: restore checkpoint: %w", err)
	}
	e.global = e.evalNet.ParamVector()
	for n := range e.edge {
		copy(e.edge[n], e.global)
	}
	return nil
}

// GlobalParams returns a copy of the current global model parameters.
func (e *Engine) GlobalParams() []float64 {
	return append([]float64(nil), e.global...)
}
