package hfl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
)

// This file states the engine's determinism contract as one matrix: a seed
// gives one trajectory at every worker count, shard count, mobility plane,
// telemetry level and fusion mode. A cell is one seeded run through runCell;
// its class — (world, strategy, lane) — is all its trajectory may depend on.
// runLayout holds every cell step by step to its class's reference run and
// to the class's row of layoutGolden, which TestLayoutMatrix pins. The tests
// after TestLayoutMatrix each run one axis of the matrix through runLayout.
//
// Mutations planted while the matrix was written, one per axis, and the
// first cell of the axis's test that caught each (steps are 0-based):
//   - workers: evalSums splitting into min(evalShards, workers) shards:
//     "TestRunBitIdenticalAcrossWorkerCounts/uniform/tiny/uniform/f64/unfused/w3/s1/dense/off:
//     diverges … at step 4: eval point (acc 0.21, loss 2.745782120704111),
//     reference (acc 0.21, loss 2.7457821207041126)", and TestLayoutMatrix's
//     rows move, one evaluation shard at workers 1 summing differently;
//   - shards: collectStep leaving the last edge of each shard range out of
//     the observation batch when there are several shards:
//     "TestRunBitIdenticalAcrossShardCounts/mach/five/mach/f64/unfused/w3/s2/dense/off:
//     diverges … at step 4: eval point", the statistical cells at s2 at
//     step 9, and the wide cells from s3 up at step 2 (sampled count); the
//     non-observing strategies' cells hold, as they must;
//   - mobility plane: the dense Schedule adapter dropping device 0's moves:
//     TestLayoutMatrix's (markov, mach, f64) row moves, and
//     "TestRunStreamingMatchesDenseBitIdentical/markov/mach/f64/unfused/w1/s1/stream/off:
//     diverges … at step 4: eval point";
//   - telemetry: edgeDecide drawing one extra coin when the step is traced:
//     "TestRunBitIdenticalWithTelemetry/tiny/mach/f64/unfused/w3/s1/dense/metrics:
//     diverges … at step 0: sampled count 4, reference 3";
//   - lane × fusion: the f32 lane stepping a k-slot group at k times the
//     learning rate: "TestRunF32BitIdenticalAcrossWorkerCounts/fused/tiny/mach/f32/fused/w1/s2/dense/off:
//     diverges … at step 4: eval point".

// layoutWorld is one seeded experiment: a non-IID partition of an img×img
// MNIST-like task, a test set, device mobility and the model. Data and
// engine draw from seed, mobility from seed+2.
type layoutWorld struct {
	devices, edges, steps int
	seed                  int64
	img, samples, tests   int // image side, samples per device, test-set size
	arch                  ArchFunc
	stay                  float64       // > 0: Markov mobility with this stay probability, else GenerateSchedule
	tune                  func(*Config) // adjustments to tinyConfig
}

// failing drops a fifth of the uploads, which exercises the failure coin's
// position in each edge's stream.
func failing(c *Config) { c.UploadFailureProb = 0.2 }

var layoutWorlds = map[string]layoutWorld{
	// tiny is the seed engine's golden world.
	"tiny": {devices: 12, edges: 3, steps: 12, seed: 21, img: 4, samples: 40, tests: 300, arch: tinyArch, tune: failing},
	// five has an edge count no tested shard count divides: shard ranges are
	// uneven and Shards 7 clamps to 5.
	"five": {devices: 12, edges: 5, steps: 12, seed: 21, img: 4, samples: 40, tests: 300, arch: tinyArch, tune: failing},
	// markov moves devices by a streaming MarkovSource or its Materialize twin.
	"markov": {devices: 12, edges: 3, steps: 12, seed: 21, img: 4, samples: 40, tests: 300, arch: tinyArch, stay: 0.7, tune: failing},
	// cnn16 is the paper's 2-conv CNN at 16×16 inputs and batch 8, the shapes
	// every f32 kernel form, tile and tail is built for.
	"cnn16": {devices: 8, edges: 2, steps: 4, seed: 5, img: 16, samples: 24, tests: 64,
		arch: func(rng *rand.Rand) (*nn.Network, error) { return nn.NewCNN(nn.MNISTCNNConfig(16, 16), rng) },
		tune: func(c *Config) { c.CloudInterval, c.BatchSize = 2, 8 }},
	// single is one device on one edge: fusion has nothing to fuse.
	"single": {devices: 1, edges: 1, steps: 10, seed: 33, img: 4, samples: 40, tests: 300, arch: tinyArch,
		tune: func(c *Config) { c.Participation = 1 }},
	// wide has 70 edges, so its shard cells run up to 64 shards of one or two
	// edges and clamp 99, with a cloud round every other step.
	"wide": {devices: 140, edges: 70, steps: 6, seed: 21, img: 4, samples: 40, tests: 300, arch: tinyArch,
		tune: func(c *Config) { c.CloudInterval = 2 }},
}

// build generates the world's device data, test set and mobility source: a
// fresh MarkovSource when stream is set, otherwise a dense schedule.
func (w layoutWorld) build(t testing.TB, stream bool) ([]*dataset.Dataset, *dataset.Dataset, mobility.StepSource) {
	t.Helper()
	task, err := dataset.NewTask(dataset.MNISTLike(w.img, w.img))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.Partition(task, dataset.PartitionConfig{
		Devices: w.devices, SamplesPerDevice: w.samples, TailRatio: 0.4, Seed: w.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	test, err := task.Generate(rand.New(rand.NewSource(w.seed+1)), w.tests, nil)
	if err != nil {
		t.Fatal(err)
	}
	var src mobility.StepSource
	switch {
	case w.stay == 0:
		src, err = mobility.GenerateSchedule(w.seed+2, w.edges, w.devices, w.steps, 3)
	case stream:
		src, err = mobility.NewMarkovSource(w.seed+2, w.edges, w.devices, w.steps, w.stay)
	default:
		var markov *mobility.MarkovSource
		if markov, err = mobility.NewMarkovSource(w.seed+2, w.edges, w.devices, w.steps, w.stay); err == nil {
			src, err = mobility.Materialize(markov)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return parts, test, src
}

// newStrategy builds a fresh strategy by name.
func newStrategy(t *testing.T, name string, devices int) sampling.Strategy {
	t.Helper()
	var s sampling.Strategy
	var err error
	switch name {
	case "uniform":
		s = sampling.NewUniform()
	case "mach":
		s, err = sampling.NewMACH(devices, sampling.DefaultMACHConfig())
	case "machp":
		s, err = sampling.NewMACHP(sampling.DefaultMACHConfig())
	case "statistical":
		s, err = sampling.NewStatistical(devices, sampling.DefaultMACHConfig().QMin)
	case "classbalance":
		s = sampling.NewClassBalance()
	default:
		err = fmt.Errorf("unknown strategy %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// layoutTel is a cell's telemetry level.
type layoutTel int

const (
	telOff     layoutTel = iota
	telMetrics           // counters and histograms, plus a JSONL decision trace
	telSpans             // telMetrics with span recording on
)

// layoutCell is one run of the matrix: a class at one layout.
type layoutCell struct {
	world, strategy string
	lane            Lane
	fuse            bool
	workers, shards int
	stream          bool // the streaming MarkovSource instead of its Materialize twin
	tel             layoutTel
}

// layoutClass is what a trajectory may depend on; every other axis of a
// cell must not reach a bit.
type layoutClass struct {
	world, strategy string
	lane            Lane
}

func (c layoutCell) class() layoutClass { return layoutClass{c.world, c.strategy, c.lane} }

// ref is the class's reference cell: one worker, one shard, the dense plane
// (markov's Materialize twin), telemetry off, unfused.
func (k layoutClass) ref() layoutCell {
	return layoutCell{world: k.world, strategy: k.strategy, lane: k.lane, workers: 1, shards: 1}
}

func (c layoutCell) String() string {
	plane := "dense"
	if c.stream {
		plane = "stream"
	} else if layoutWorlds[c.world].stay > 0 {
		plane = "twin"
	}
	fuse := "unfused"
	if c.fuse {
		fuse = "fused"
	}
	return fmt.Sprintf("%s/%s/%s/%s/w%d/s%d/%s/%s", c.world, c.strategy, c.lane, fuse,
		c.workers, c.shards, plane, [...]string{"off", "metrics", "spans"}[c.tel])
}

// layoutStep is one link of a run's chain: the devices that uploaded at the
// step and, when it evaluated, the evaluation point and a digest of the
// global model it scored.
type layoutStep struct {
	sampled   int
	eval      bool
	acc, loss float64
	global    uint64
}

// layoutRun is what runCell records of one run.
type layoutRun struct {
	eng   *Engine
	res   *Result
	chain []layoutStep
	tel   *telemetry.Telemetry
	trace string // the JSONL trace minus phase events; "" when untraced
}

// runCell builds the engine of cell c, lets prep (when non-nil) adjust it,
// runs it and records its chain through the step and eval hooks.
func runCell(t *testing.T, c layoutCell, prep func(*Engine)) layoutRun {
	t.Helper()
	w := layoutWorlds[c.world]
	parts, test, src := w.build(t, c.stream)
	cfg := tinyConfig(w.steps, w.seed)
	cfg.Lane, cfg.FuseBatch, cfg.Workers, cfg.Shards = c.lane, c.fuse, c.workers, c.shards
	w.tune(&cfg)
	eng, err := New(cfg, w.arch, parts, test, src, newStrategy(t, c.strategy, w.devices))
	if err != nil {
		t.Fatal(err)
	}
	r := layoutRun{eng: eng}
	var trace bytes.Buffer
	if c.tel != telOff {
		r.tel = telemetry.New()
		r.tel.SetTrace(telemetry.NewTrace(&trace, telemetry.TraceConfig{}))
		r.tel.EnableSpans(c.tel == telSpans)
		eng.SetTelemetry(r.tel)
	}
	if prep != nil {
		prep(eng)
	}
	r.res, err = eng.Run(
		WithStepHook(func(_, sampled int) { r.chain = append(r.chain, layoutStep{sampled: sampled}) }),
		WithEvalHook(func(step int, acc, loss float64) {
			r.chain[step-1] = layoutStep{r.chain[step-1].sampled, true, acc, loss, paramsDigest(fnv.New64a(), eng.global)}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if r.tel != nil {
		if err := r.tel.Trace().Close(); err != nil {
			t.Fatal(err)
		}
		r.trace = dropPhaseEvents(trace.String())
	}
	return r
}

// diverge names the first step (0-based) and component at which r departs
// from ref — sampled count, eval point, or the global model that eval scored —
// or the communication totals; "" when the runs agree bit for bit.
func (ref layoutRun) diverge(r layoutRun) string {
	for i := 0; i < len(ref.chain) || i < len(r.chain); i++ {
		if i >= len(ref.chain) || i >= len(r.chain) {
			return fmt.Sprintf("step %d: ran %d steps, reference %d", i, len(r.chain), len(ref.chain))
		}
		a, b := ref.chain[i], r.chain[i]
		switch {
		case a.sampled != b.sampled:
			return fmt.Sprintf("step %d: sampled count %d, reference %d", i, b.sampled, a.sampled)
		case a.eval != b.eval || math.Float64bits(a.acc) != math.Float64bits(b.acc) || math.Float64bits(a.loss) != math.Float64bits(b.loss):
			return fmt.Sprintf("step %d: eval point (%v, acc %v, loss %v), reference (%v, acc %v, loss %v)", i, b.eval, b.acc, b.loss, a.eval, a.acc, a.loss)
		case a.global != b.global:
			return fmt.Sprintf("step %d: global model digest %#x, reference %#x", i, b.global, a.global)
		}
	}
	if r.res.Comm != ref.res.Comm {
		return fmt.Sprintf("end: comm totals %+v, reference %+v", r.res.Comm, ref.res.Comm)
	}
	return ""
}

// fnvWords folds little-endian words into h.
func fnvWords(h hash.Hash64, words ...uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

// paramsDigest folds every parameter's bits into h and returns the sum.
func paramsDigest(h hash.Hash64, params []float64) uint64 {
	for _, v := range params {
		fnvWords(h, math.Float64bits(v))
	}
	return h.Sum64()
}

// layoutPin is a class's golden row: its sampled-per-step sequence and the
// run digest — FNV-64a over (step, accuracy bits, loss bits) of every
// evaluation, then the final global model's bits.
type layoutPin struct {
	sampled string
	digest  uint64
}

func (r layoutRun) pin() layoutPin {
	h := fnv.New64a()
	for _, p := range r.res.History.Points {
		fnvWords(h, uint64(p.Step), math.Float64bits(p.Accuracy), math.Float64bits(p.Loss))
	}
	return layoutPin{strings.Trim(fmt.Sprint(r.res.SampledPerStep), "[]"), paramsDigest(h, r.eng.GlobalParams())}
}

// goldenRow formats class k pinned at pin as its line of layoutGolden.
func goldenRow(k layoutClass, pin layoutPin) string {
	return fmt.Sprintf("\t{%q, %q, Lane%s}: {%q, %#x},\n", k.world, k.strategy, strings.ToUpper(k.lane.String()), pin.sampled, pin.digest)
}

// layoutGolden pins every class of the matrix on both kernel builds (go test
// and -tags purego, so cnn16's rows prove AVX2 ≡ pure-Go on a whole run).
// Re-pinning is a paste: on a mismatch TestLayoutMatrix prints the
// replacement table; DESIGN.md §5's re-pin record takes the old → new row.
var layoutGolden = map[layoutClass]layoutPin{
	{"cnn16", "mach", LaneF32}:        {"5 4 2 4", 0x662fe045a5d9e945},
	{"cnn16", "mach", LaneF64}:        {"5 4 2 4", 0x46b7acd3f5c74344},
	{"five", "classbalance", LaneF64}: {"2 5 1 5 5 5 5 4 4 4 3 4", 0xbd75add76427e7d7},
	{"five", "mach", LaneF64}:         {"5 7 2 4 4 5 3 8 7 4 5 3", 0x7b9fa0ac58243efa},
	{"five", "machp", LaneF64}:        {"5 6 2 4 4 5 2 8 6 4 3 4", 0x858421e0d7624c85},
	{"five", "statistical", LaneF64}:  {"5 7 2 4 4 5 4 7 5 7 2 6", 0xc1697309bc91b363},
	{"five", "uniform", LaneF64}:      {"5 7 2 4 4 5 3 8 6 6 5 4", 0xdc8be87a0631ec3d},
	{"markov", "mach", LaneF64}:       {"5 6 4 2 4 3 4 5 4 6 4 6", 0xf5b6665b01344211},
	{"single", "uniform", LaneF32}:    {"1 1 1 1 1 1 1 1 1 1", 0x992eb7af5999cdf2},
	{"single", "uniform", LaneF64}:    {"1 1 1 1 1 1 1 1 1 1", 0xd5b5415203ba63e3},
	{"tiny", "classbalance", LaneF64}: {"2 6 3 6 6 4 6 5 5 5 5 5", 0x413b3b2aee2e088c},
	{"tiny", "mach", LaneF32}:         {"3 7 6 4 4 4 5 5 5 8 3 8", 0x377d22e84c85c6af},
	{"tiny", "mach", LaneF64}:         {"3 7 6 4 4 4 5 5 5 8 3 8", 0x63704dfa052af56f},
	{"tiny", "machp", LaneF64}:        {"4 6 6 4 4 2 5 5 4 9 3 6", 0xc61507755b215c60},
	{"tiny", "statistical", LaneF64}:  {"3 7 6 4 4 5 6 4 6 4 4 8", 0xf533cc08039a758f},
	{"tiny", "uniform", LaneF64}:      {"3 7 6 4 4 3 5 5 4 8 3 6", 0xb51f8fbb7fecaa8b},
	{"wide", "mach", LaneF64}:         {"54 53 50 40 45 45", 0xfc608545c2381935},
}

// runLayout runs each cell as a subtest of t and holds it to its class: step
// by step to the class's reference run, and to the class's golden row. A
// telemetry cell is also held to the run's own accounting, and its decision
// trace, phase events aside, to that of the first telemetry cell of its class
// in cells — spans on or off.
func runLayout(t *testing.T, cells ...layoutCell) {
	t.Helper()
	type seen struct {
		cell layoutCell
		run  layoutRun
	}
	refs, traced := map[layoutClass]layoutRun{}, map[layoutClass]seen{}
	for _, c := range cells {
		t.Run(c.String(), func(t *testing.T) {
			k := c.class()
			ref, ok := refs[k]
			if !ok {
				ref = runCell(t, k.ref(), nil)
				refs[k] = ref
			}
			r := runCell(t, c, nil)
			if d := ref.diverge(r); d != "" {
				t.Errorf("diverges from %s at %s", k.ref(), d)
			}
			if pin := r.pin(); pin != layoutGolden[k] {
				t.Errorf("off its golden row; this run pins\n%s", goldenRow(k, pin))
			}
			if c.tel == telOff {
				return
			}
			checkTelemetry(t, c, r)
			if first, ok := traced[k]; !ok {
				traced[k] = seen{c, r}
			} else if r.trace != first.run.trace {
				t.Errorf("decision trace differs from %s's", first.cell)
			}
		})
	}
}

// layoutStrategies are the strategies whose layout invariance is tested.
var layoutStrategies = []string{"uniform", "mach", "machp", "statistical", "classbalance"}

// TestLayoutMatrix pins every class's reference run to its row of
// layoutGolden; on a mismatch it prints the replacement table.
func TestLayoutMatrix(t *testing.T) {
	classes := map[string]layoutClass{}
	for k := range layoutGolden {
		classes[k.ref().String()] = k
	}
	var table strings.Builder
	for _, name := range det.SortedKeys(classes) {
		k, want := classes[name], layoutGolden[classes[name]]
		pin := runCell(t, k.ref(), nil).pin()
		if pin != want {
			t.Errorf("%s moved off its golden row\n%sto\n%s", name, goldenRow(k, want), goldenRow(k, pin))
		}
		table.WriteString(goldenRow(k, pin))
	}
	if t.Failed() {
		t.Logf("the table these runs pin is\n%s", table.String())
	}
}

// TestRunIsDeterministic: each strategy's reference run on the seed engine's
// world, run again, agrees with itself bit for bit.
func TestRunIsDeterministic(t *testing.T) {
	for _, s := range layoutStrategies {
		runLayout(t, layoutClass{"tiny", s, LaneF64}.ref())
	}
}

// TestRunRegressionFixedSeed locks the serial, unsharded pipeline to the seed
// engine's golden trace, the (tiny, mach, f64) row: its sampled-per-step
// sequence 3 7 6 4 4 4 5 5 5 8 3 6 and the digest of its evaluations and
// final global model.
func TestRunRegressionFixedSeed(t *testing.T) {
	runLayout(t, layoutClass{"tiny", "mach", LaneF64}.ref())
}

// TestRunBitIdenticalAcrossWorkerCounts: workers 3 and 8 change no bit of a
// strategy's run at workers 1 — sampling decisions, evaluation history,
// communication totals or global model.
func TestRunBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, s := range layoutStrategies {
		t.Run(s, func(t *testing.T) {
			runLayout(t, layoutCell{world: "tiny", strategy: s, workers: 3, shards: 1},
				layoutCell{world: "tiny", strategy: s, workers: 8, shards: 1})
		})
	}
}

// TestRunBitIdenticalAcrossShardCounts (DESIGN.md §11): shards change no bit
// of a run. The five-edge world is divisible by no tested shard count, so
// shard ranges are uneven, and 7 > 5 exercises the clamp to one edge per
// shard. The 70-edge world runs 64 shards of one or two edges and clamps 99.
func TestRunBitIdenticalAcrossShardCounts(t *testing.T) {
	for _, s := range layoutStrategies {
		t.Run(s, func(t *testing.T) {
			var cells []layoutCell
			for _, sh := range []int{1, 2, 3, 7} {
				cells = append(cells, layoutCell{world: "five", strategy: s, workers: 3, shards: sh})
			}
			runLayout(t, cells...)
		})
	}
	t.Run("wide", func(t *testing.T) {
		var cells []layoutCell
		for _, w := range []int{1, 3} {
			for _, sh := range []int{1, 2, 3, 7, 64, 99} {
				cells = append(cells, layoutCell{world: "wide", strategy: "mach", workers: w, shards: sh})
			}
		}
		runLayout(t, cells...)
	})
}

// TestShardedMatchesSeedEngineGolden: every workers × shards layout of the
// seed engine's world reproduces its class's golden row, not just its
// reference run — for MACH, the seed engine's 3 7 6 4 4 4 5 5 5 8 3 6.
func TestShardedMatchesSeedEngineGolden(t *testing.T) {
	for _, s := range layoutStrategies {
		t.Run(s, func(t *testing.T) {
			var cells []layoutCell
			for _, w := range []int{1, 3, 8} {
				for _, sh := range []int{2, 3} {
					cells = append(cells, layoutCell{world: "tiny", strategy: s, workers: w, shards: sh})
				}
			}
			runLayout(t, cells...)
		})
	}
}

// TestRunStreamingMatchesDenseBitIdentical: a run driven by a streaming
// MarkovSource is bit-identical to one driven by its Materialize twin, at
// every worker and shard count — the O(Devices) window changes memory, never
// results.
func TestRunStreamingMatchesDenseBitIdentical(t *testing.T) {
	var cells []layoutCell
	for _, stream := range []bool{false, true} {
		for _, w := range []int{1, 3} {
			for _, sh := range []int{1, 3} {
				cells = append(cells, layoutCell{world: "markov", strategy: "mach", workers: w, shards: sh, stream: stream})
			}
		}
	}
	runLayout(t, cells...)
}

// TestRunBitIdenticalWithTelemetry: metrics and a full decision trace, with
// spans or without, change no bit of a run, and the counters agree with the
// Result.
func TestRunBitIdenticalWithTelemetry(t *testing.T) {
	runLayout(t, layoutCell{world: "tiny", strategy: "mach", workers: 3, shards: 1, tel: telMetrics},
		layoutCell{world: "tiny", strategy: "mach", workers: 3, shards: 2, tel: telSpans})
}

// TestShardedTelemetryDoesNotPerturbRun: telemetry on a multi-shard run
// changes no bit of it, the snapshot carries one section per shard, and the
// trace minus phase events is the same with spans on or off.
func TestShardedTelemetryDoesNotPerturbRun(t *testing.T) {
	runLayout(t, layoutCell{world: "five", strategy: "mach", workers: 3, shards: 3, tel: telMetrics},
		layoutCell{world: "five", strategy: "mach", workers: 3, shards: 3, tel: telSpans},
		layoutCell{world: "markov", strategy: "mach", workers: 3, shards: 3, stream: true, tel: telSpans})
}

// TestRunF32BitIdenticalAcrossWorkerCounts: the f32 lane need not match the
// f64 lane bit for bit, but it matches itself at every worker count, fused
// or not.
func TestRunF32BitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, g := range []struct {
		name   string
		fuse   bool
		shards int
	}{{"unfused", false, 1}, {"fused", true, 2}} {
		t.Run(g.name, func(t *testing.T) {
			var cells []layoutCell
			for _, w := range []int{1, 3, 8} {
				cells = append(cells, layoutCell{world: "tiny", strategy: "mach", lane: LaneF32, fuse: g.fuse, workers: w, shards: g.shards})
			}
			runLayout(t, cells...)
		})
	}
}

// TestRunFusedMatchesUnfused: in each lane, fusing an edge's devices into one
// batched task changes scheduling and memory layout but no bit of the run,
// MACH's gradient-norm feedback included.
func TestRunFusedMatchesUnfused(t *testing.T) {
	for _, lane := range []Lane{LaneF64, LaneF32} {
		t.Run(lane.String(), func(t *testing.T) {
			var cells []layoutCell
			for _, w := range []int{1, 3, 8} {
				cells = append(cells, layoutCell{world: "tiny", strategy: "mach", lane: lane, fuse: true, workers: w, shards: 1})
			}
			runLayout(t, cells...)
		})
	}
}

// TestRunFusedSingleDeviceEqualsUnfused: with one device on one edge, fusion
// has nothing to fuse and reduces exactly to the unfused path in both lanes.
func TestRunFusedSingleDeviceEqualsUnfused(t *testing.T) {
	for _, lane := range []Lane{LaneF64, LaneF32} {
		t.Run(lane.String(), func(t *testing.T) {
			runLayout(t, layoutCell{world: "single", strategy: "uniform", lane: lane, fuse: true, workers: 1, shards: 1})
		})
	}
}

// TestRunF32GoldenAcrossBuilds pins the f32 lane's arithmetic on the paper's
// 2-conv CNN at 16×16 and batch 8: fused and unfused runs reproduce the
// (cnn16, mach, f32) row, 0xfbdd056f8900c935, under go test and -tags
// purego alike, so the one value proves AVX2 kernels ≡ pure-Go loops.
func TestRunF32GoldenAcrossBuilds(t *testing.T) {
	runLayout(t, layoutCell{world: "cnn16", strategy: "mach", lane: LaneF32, workers: 1, shards: 1},
		layoutCell{world: "cnn16", strategy: "mach", lane: LaneF32, fuse: true, workers: 2, shards: 1})
}

// checkTelemetry holds a telemetry cell's counters to the run's Result and,
// with spans on, requires one snapshot section per shard with every phase
// observed, all six engine span kinds, and one step span per step.
func checkTelemetry(t *testing.T, c layoutCell, r layoutRun) {
	t.Helper()
	tel, res := r.tel, r.res
	for _, cnt := range []struct {
		name      string
		got, want int64
	}{
		{"steps", tel.Count(telemetry.CounterSteps), int64(res.StepsRun)},
		{"uploaded", tel.Count(telemetry.CounterDevicesUploaded), int64(res.TotalSampled)},
		{"uplink bytes", tel.Count(telemetry.CounterDeviceUplinkBytes), res.Comm.DeviceUplinkBytes},
		{"cloud bytes", tel.Count(telemetry.CounterCloudBytes), res.Comm.CloudBytes},
	} {
		if cnt.got != cnt.want {
			t.Errorf("%s counter = %d, want %d", cnt.name, cnt.got, cnt.want)
		}
	}
	if trained := tel.Count(telemetry.CounterDevicesTrained); trained < int64(res.TotalSampled) {
		t.Errorf("trained counter %d below uploaded %d", trained, res.TotalSampled)
	}
	if !strings.Contains(r.trace, `"type":"decision"`) {
		t.Error("trace recorded no decisions")
	}
	if c.tel != telSpans {
		return
	}
	snap := tel.Snapshot()
	if len(snap.Shards) != len(r.eng.shards) {
		t.Errorf("snapshot has %d shard sections, want %d", len(snap.Shards), len(r.eng.shards))
	}
	for i, sh := range snap.Shards {
		for _, phase := range []string{"decide", "train", "finalize"} {
			if h, ok := sh.Phases[phase]; sh.Shard != i || !ok || h.Count == 0 {
				t.Errorf("shard section %d (labelled %d): phase %q has no observations", i, sh.Shard, phase)
			}
		}
	}
	for _, kind := range []string{"span_step_ns", "span_decide_ns", "span_train_ns", "span_finalize_ns", "span_shard_cmd_ns", "span_cloud_reduce_ns"} {
		if snap.Histograms[kind].Count == 0 {
			t.Errorf("spans enabled but %s has no observations", kind)
		}
	}
	if got := snap.Histograms["span_step_ns"].Count; got != snap.Counters["steps"] || len(tel.Spans()) == 0 {
		t.Errorf("span_step_ns count = %d for %d steps, %d spans in the ring", got, snap.Counters["steps"], len(tel.Spans()))
	}
}

// dropPhaseEvents removes phase-event lines from a JSONL trace: they carry
// measured durations, which legitimately differ between runs.
func dropPhaseEvents(trace string) string {
	var b strings.Builder
	for _, line := range strings.Split(trace, "\n") {
		if !strings.HasPrefix(line, `{"type":"phase"`) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestTransitionStatsAreObservationOnly: attaching OnlineTransitionStats to a
// streaming run must not change a bit of it, while the statistics come out
// fitted — every single-step transition observed, no jumps, the dense twin's
// transition rate, and rows that are distributions.
func TestTransitionStatsAreObservationOnly(t *testing.T) {
	w := layoutWorlds["markov"]
	ref := runCell(t, layoutCell{world: "markov", strategy: "mach", workers: 1, shards: 1}, nil)
	stats, err := mobility.NewOnlineTransitionStats(w.edges, w.devices)
	if err != nil {
		t.Fatal(err)
	}
	c := layoutCell{world: "markov", strategy: "mach", workers: 3, shards: 3, stream: true}
	if d := ref.diverge(runCell(t, c, func(e *Engine) { e.SetTransitionStats(stats) })); d != "" {
		t.Fatalf("with stats attached, %s diverges at %s", c, d)
	}
	_, _, twin := w.build(t, false)
	rate := twin.(*mobility.Schedule).TransitionRate()
	if rate == 0 {
		t.Fatal("twin schedule never moves a device; test exercises nothing")
	}
	if stats.Steps() != w.steps-1 || stats.Jumps() != 0 { // step 0 is the initial snapshot
		t.Fatalf("observed %d single-step transitions and %d jumps, want %d and 0", stats.Steps(), stats.Jumps(), w.steps-1)
	}
	if got := stats.TransitionRate(); math.Abs(got-rate) > 1e-15 {
		t.Fatalf("online transition rate %v, dense %v", got, rate)
	}
	for i, row := range stats.Transitions() {
		sum := 0.0
		for _, p := range row {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("fitted row %d sums to %v", i, sum)
		}
	}
}
