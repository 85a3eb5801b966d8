package hfl

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
	"github.com/mach-fl/mach/internal/tensor"
)

// cnnArch is a small two-stage CNN over 8×8 single-channel images: it has
// every cache a shared trainer could leak through (Conv2D view headers and
// column buffers, pooling argmax, ReLU masks).
func cnnArch(rng *rand.Rand) (*nn.Network, error) {
	return nn.NewCNN(nn.CNNConfig{
		Name: "tiny-cnn", InC: 1, InH: 8, InW: 8,
		Convs:   []nn.ConvSpec{{OutC: 3, K: 3, Pad: 1, Pool: true}, {OutC: 4, K: 3, Pad: 1, Pool: true}},
		Hidden:  []int{8},
		Classes: 10,
	}, rng)
}

// mlp8Arch is the MLP counterpart over the same 8×8 inputs.
func mlp8Arch(rng *rand.Rand) (*nn.Network, error) {
	return nn.NewMLP("mlp8", 64, []int{12}, 10, rng), nil
}

// world8 builds devices, a test set and a two-step Markov schedule over 8×8
// images.
func world8(t testing.TB, devices, edges int, seed int64) ([]*dataset.Dataset, *dataset.Dataset, *mobility.Schedule) {
	t.Helper()
	task, err := dataset.NewTask(dataset.MNISTLike(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.Partition(task, dataset.PartitionConfig{
		Devices: devices, SamplesPerDevice: 8, TailRatio: 0.4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	test, err := task.Generate(rand.New(rand.NewSource(seed+1)), 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	return parts, test, markovTwin(t, seed+2, edges, devices)
}

// markovTwin is the dense twin of a two-step MarkovSource with stay
// probability 0.9.
func markovTwin(t testing.TB, seed int64, edges, devices int) *mobility.Schedule {
	t.Helper()
	markov, err := mobility.NewMarkovSource(seed, edges, devices, 2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := mobility.Materialize(markov)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// planFor installs a hand-made plan on edge n: the given devices at weight
// 1, every second upload dropped.
func planFor(e *Engine, n int, devs []int) {
	plan := &e.plans[n]
	plan.Picks, plan.Uploads, plan.failErr = plan.Picks[:0], 0, nil
	for i, m := range devs {
		plan.Picks = append(plan.Picks, Pick{Device: m, Member: i, Weight: 1, Upload: i%2 == 0})
		if i%2 == 0 {
			plan.Uploads++
		}
	}
	plan.reserve(e.cfg.LocalEpochs)
}

// edgeOutputs copies what trainEdge left for edge n: each planned device's
// gradient-norm window, and the folded next edge model.
func edgeOutputs(t *testing.T, e *Engine, n int) (norms [][]float64, folded []float64) {
	t.Helper()
	plan := &e.plans[n]
	if err := plan.trainErr(); err != nil {
		t.Fatal(err)
	}
	for i := range plan.Picks {
		norms = append(norms, append([]float64(nil), plan.norms[i*e.cfg.LocalEpochs:(i+1)*e.cfg.LocalEpochs]...))
	}
	return norms, append([]float64(nil), e.aggNext[n]...)
}

func requireSameBits(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vectors, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s[%d]: %d values, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s[%d][%d] = %v, want %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestTrainerCarriesNoStateBetweenDevices: training devices B on a trainer
// that has just served other devices A — from a different edge model, in a
// larger group of lane slots — leaves exactly the gradient-norm windows and
// folded edge model that a fresh trainer leaves. Stale gradients, a stale
// loss gradient, Conv2D view caches or Lane32 slot residue would all show
// here.
func TestTrainerCarriesNoStateBetweenDevices(t *testing.T) {
	archs := map[string]ArchFunc{"mlp": mlp8Arch, "cnn": cnnArch}
	for _, lane := range []Lane{LaneF64, LaneF32} {
		for _, name := range []string{"mlp", "cnn"} {
			for _, k := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/group%d", lane, name, k), func(t *testing.T) {
					build := func() *Engine {
						parts, test, sched := world8(t, 10, 2, 41)
						cfg := tinyConfig(2, 41)
						cfg.Lane, cfg.FuseBatch = lane, true
						e, err := New(cfg, archs[name], parts, test, sched, sampling.NewUniform())
						if err != nil {
							t.Fatal(err)
						}
						return e
					}
					devsA, devsB := []int{0, 1, 2, 3}[:k+1], []int{5, 6, 7}[:k]

					used := build()
					rng := rand.New(rand.NewSource(5))
					for j := range used.edge[0] {
						used.edge[0][j] = rng.NormFloat64() // A trains from another model
					}
					planFor(used, 0, devsA)
					planFor(used, 1, devsB)
					tr := used.trainers.Borrow(used.cfg.BatchSize)
					used.trainEdge(0, tr)
					used.trainEdge(1, tr)
					gotNorms, gotFold := edgeOutputs(t, used, 1)

					fresh := build()
					planFor(fresh, 1, devsB)
					fresh.trainEdge(1, fresh.trainers.Borrow(fresh.cfg.BatchSize))
					wantNorms, wantFold := edgeOutputs(t, fresh, 1)

					requireSameBits(t, "norms", gotNorms, wantNorms)
					requireSameBits(t, "fold", [][]float64{gotFold}, [][]float64{wantFold})
				})
			}
		}
	}
}

// TestDeviceUpdateIndependentOfTrainer: a device's local update is a
// function of the run, the step, the device and the edge model alone. Device
// m trained at step t on a fresh trainer, and on one that has just trained
// ten other devices at another step — one fused group of ten slots on the
// f32 lane — leaves Float64bits-identical θ and norm windows, on both lanes.
// (While each device owned a stream, the update instead depended on how often
// the device had trained before.)
func TestDeviceUpdateIndependentOfTrainer(t *testing.T) {
	const m, step = 11, 7
	for _, lane := range []Lane{LaneF64, LaneF32} {
		t.Run(lane.String(), func(t *testing.T) {
			parts, test, sched := world8(t, 12, 2, 43)
			cfg := tinyConfig(2, 43)
			cfg.Lane, cfg.FuseBatch = lane, true
			e, err := New(cfg, cnnArch, parts, test, sched, sampling.NewUniform())
			if err != nil {
				t.Fatal(err)
			}
			train := func(tr *Trainer, t0 int, devs ...int) (norms [][]float64, theta []float64) {
				planFor(e, 0, devs)
				e.plans[0].step = t0
				e.trainEdge(0, tr)
				norms, _ = edgeOutputs(t, e, 0)
				if lane == LaneF32 {
					return norms, append([]float64(nil), tr.lane.Master(0)...)
				}
				return norms, tr.net.ParamVector()
			}
			used := e.trainers.Borrow(cfg.BatchSize)
			train(used, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
			gotNorms, gotTheta := train(used, step, m)
			wantNorms, wantTheta := train(e.trainers.Borrow(cfg.BatchSize), step, m)
			requireSameBits(t, "norms", gotNorms, wantNorms)
			requireSameBits(t, "theta", [][]float64{gotTheta}, [][]float64{wantTheta})
		})
	}
}

// deviceOwnedUpdate is the engine's previous local update, kept as the
// reference: the device owns a model replica and an optimizer (here built
// fresh from the base), loads the edge model, and takes I steps on
// minibatches drawn from its own stream, at its key for step 0.
func deviceOwnedUpdate(t *testing.T, cfg Config, base *nn.Network, data *dataset.Dataset, m int, edgeParams []float64) (norms, upload []float64) {
	t.Helper()
	rng := det.Stream(det.DeviceBatch(cfg.Seed, 0, m))
	batch := func() (*tensor.Tensor, []int) {
		x, y := tensor.New(cfg.BatchSize, data.InC, data.InH, data.InW), make([]int, cfg.BatchSize)
		data.RandomBatchInto(&rng, x, y, make([]int, cfg.BatchSize))
		return x, y
	}
	norms = make([]float64, cfg.LocalEpochs)
	if cfg.Lane == LaneF32 {
		lane, err := nn.NewLane32(base, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := lane.LoadParams(0, edgeParams); err != nil {
			t.Fatal(err)
		}
		loss := make([]float64, 1)
		for tau := range norms {
			x, y := batch()
			lane.SetInput(0, cfg.BatchSize, x.Data())
			lane.TrainStep(1, cfg.BatchSize, [][]int{y}, cfg.LearningRate, loss, norms[tau:tau+1])
		}
		return norms, append([]float64(nil), lane.Master(0)...)
	}
	model, opt := base.Clone(), nn.NewSGD(cfg.LearningRate)
	if err := model.SetParamVector(edgeParams); err != nil {
		t.Fatal(err)
	}
	for tau := range norms {
		x, y := batch()
		_, norms[tau] = model.TrainStep(x, y, opt)
	}
	return norms, model.ParamVector()
}

// upload is one surviving device's trained model, as the slot-then-aggregate
// engine kept it for aggregation.
type upload struct {
	params []float64
	weight float64 // 1/(|M_n|·q)
	size   int     // |D_m|
}

// slotOracle is the slot-then-aggregate edge step the per-edge fold
// replaced, kept as the reference: the uploads, collected in member order,
// merge into a copy of the edge model cur in one pass — Eq. (5)'s weights on
// the updates (AggInverseUpdate) or on the models (AggLiteralEq5), or a
// dataset-size-weighted mean (AggPlain). With no uploads the edge model
// carries over.
func slotOracle(mode Aggregation, cur []float64, uploads []upload) []float64 {
	next := append([]float64(nil), cur...)
	if len(uploads) == 0 {
		return next
	}
	switch mode {
	case AggPlain:
		total := 0
		for _, u := range uploads {
			total += u.size
		}
		clear(next)
		for _, u := range uploads {
			tensor.Axpy(next, float64(u.size)/float64(total), u.params)
		}
	case AggLiteralEq5:
		clear(next)
		for _, u := range uploads {
			tensor.Axpy(next, u.weight, u.params)
		}
	default:
		for _, u := range uploads {
			tensor.AxpyDiff(next, u.weight, u.params, cur)
		}
	}
	return next
}

// TestEngineStepMatchesDeviceOwnedUpdate runs one engine step at every
// Workers × Shards × FuseBatch layout on both lanes under every aggregation
// mode, with uploads failing, and requires each planned device's
// gradient-norm window to equal, bit for bit, what the device-owned reference
// computes for it, and each edge model to equal slotOracle over the
// reference's surviving uploads: the per-edge fold is the slot-then-aggregate
// step. The world has an edge whose every upload drops, which keeps its model,
// and edges that fold more than one upload.
func TestEngineStepMatchesDeviceOwnedUpdate(t *testing.T) {
	for _, lane := range []Lane{LaneF64, LaneF32} {
		for _, workers := range []int{1, 4} {
			for _, shards := range []int{1, 3} {
				for _, fuse := range []bool{false, true} {
					for _, mode := range []Aggregation{AggInverseUpdate, AggPlain, AggLiteralEq5} {
						t.Run(fmt.Sprintf("%s/workers%d/shards%d/fuse%v/%v", lane, workers, shards, fuse, mode), func(t *testing.T) {
							parts, test, sched := world8(t, 24, 4, 48)
							cfg := tinyConfig(1, 48)
							cfg.Lane, cfg.Workers, cfg.Shards, cfg.FuseBatch = lane, workers, shards, fuse
							cfg.Aggregation, cfg.UploadFailureProb = mode, 0.5
							e, err := New(cfg, cnnArch, parts, test, sched, sampling.NewUniform())
							if err != nil {
								t.Fatal(err)
							}
							start := e.GlobalParams() // every edge starts the step from it
							res, err := e.Run()
							if err != nil {
								t.Fatal(err)
							}
							base, err := cnnArch(rand.New(rand.NewSource(cfg.Seed)))
							if err != nil {
								t.Fatal(err)
							}
							trained, allDropped, multi := 0, 0, 0
							for n := range e.plans {
								plan := &e.plans[n]
								gotNorms, _ := edgeOutputs(t, e, n)
								var uploads []upload
								for i, pd := range plan.Picks {
									norms, params := deviceOwnedUpdate(t, cfg, base, parts[pd.Device], pd.Device, start)
									requireSameBits(t, fmt.Sprintf("edge %d device %d norms", n, pd.Device), [][]float64{gotNorms[i]}, [][]float64{norms})
									if pd.Upload {
										members := e.Members(n)
										q := e.decide[n].probs[slices.Index(members, pd.Device)]
										uploads = append(uploads, upload{params: params, weight: 1 / (float64(len(members)) * q), size: parts[pd.Device].Len()})
									}
									trained++
								}
								switch {
								case len(plan.Picks) > 0 && len(uploads) == 0:
									allDropped++
								case len(uploads) > 1:
									multi++
								}
								requireSameBits(t, fmt.Sprintf("edge %d model", n), [][]float64{e.edge[n]}, [][]float64{slotOracle(mode, start, uploads)})
							}
							if trained < 4 || int64(trained) != res.Comm.DeviceDownloads {
								t.Fatalf("compared %d devices, run trained %d", trained, res.Comm.DeviceDownloads)
							}
							if allDropped == 0 || multi == 0 {
								t.Fatalf("the world has %d edges whose uploads all dropped and %d folding several; want both", allDropped, multi)
							}
						})
					}
				}
			}
		}
	}
}

// heapAfterNew returns the live heap New adds: HeapAlloc after minus before,
// both measured after a collection, with everything New was handed (device
// data, test set, schedule) allocated by the caller beforehand.
func heapAfterNew(t *testing.T, arch ArchFunc, parts []*dataset.Dataset, test *dataset.Dataset, src mobility.StepSource) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := New(tinyConfig(2, 47), arch, parts, test, src, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// TestDeviceFootprintIndependentOfModelSize: a device is its data, so what
// one more device costs the engine does not depend on the architecture. Two MLPs whose parameter counts differ 30× must agree on the
// heap growth per added device within 1 KiB.
func TestDeviceFootprintIndependentOfModelSize(t *testing.T) {
	archOf := func(hidden int) ArchFunc {
		return func(rng *rand.Rand) (*nn.Network, error) {
			return nn.NewMLP("mlp", 64, []int{hidden}, 10, rng), nil
		}
	}
	small, large := archOf(8), archOf(256)
	if s, l := 64*8+8+8*10+10, 64*256+256+256*10+10; l < 10*s {
		t.Fatalf("architectures too close: %d vs %d parameters", s, l)
	}
	perDevice := map[string]float64{}
	for name, arch := range map[string]ArchFunc{"small": small, "large": large} {
		var heap [2]float64
		for i, devices := range []int{1000, 5000} {
			parts, test, sched := world8(t, devices, 10, 47)
			heap[i] = heapAfterNew(t, arch, parts, test, sched)
		}
		perDevice[name] = (heap[1] - heap[0]) / 4000
		t.Logf("%s: %.0f bytes per added device", name, perDevice[name])
	}
	if d := math.Abs(perDevice["large"] - perDevice["small"]); d > 1024 {
		t.Fatalf("a device costs %.0f bytes under the small model and %.0f under the large one", perDevice["small"], perDevice["large"])
	}
}

// TestEngineHeapPerDevice is the fleet memory guard: everything the engine
// owns for 5,000 devices — the device table, label distributions, the
// mobility window, the edge models of an MLP — fits in 1 KiB a device. The
// data is one sample each and allocated outside the measurement. A math/rand source per device alone is 4.9 KB
// (≈ 5.9 KB a device through d7166bc); scripts/check.sh runs this by name.
func TestEngineHeapPerDevice(t *testing.T) {
	const devices, budget = 5000, 1024
	task, err := dataset.NewTask(dataset.MNISTLike(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.Partition(task, dataset.PartitionConfig{
		Devices: devices, SamplesPerDevice: 1, TailRatio: 0.4, Seed: 47,
	})
	if err != nil {
		t.Fatal(err)
	}
	test, err := task.Generate(rand.New(rand.NewSource(48)), 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	perDevice := heapAfterNew(t, mlp8Arch, parts, test, markovTwin(t, 49, 10, devices)) / devices
	t.Logf("engine-owned heap: %.0f bytes per device", perDevice)
	if perDevice > budget {
		t.Fatalf("engine owns %.0f bytes per device, budget %d", perDevice, budget)
	}
}

// TestTargetStopCountsFinalStep: the step that reaches the accuracy target is
// a step like any other in the telemetry — counted, and timed with its
// evaluation — whether or not a target ends the run there.
func TestTargetStopCountsFinalStep(t *testing.T) {
	for _, target := range []bool{false, true} {
		parts, test, sched := tinySetup(t, 8, 2, 60, 5)
		eng, err := New(tinyConfig(60, 5), tinyArch, parts, test, sched, sampling.NewUniform())
		if err != nil {
			t.Fatal(err)
		}
		tel := telemetry.New()
		eng.SetTelemetry(tel)
		var opts []RunOption
		if target {
			opts = append(opts, WithTarget(0.2)) // trivially reachable
		}
		res, err := eng.Run(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if res.ReachedTarget != target || (target && res.StepsRun == 60) {
			t.Fatalf("target %v: reached %v after %d steps", target, res.ReachedTarget, res.StepsRun)
		}
		if got := tel.Count(telemetry.CounterSteps); got != int64(res.StepsRun) {
			t.Fatalf("target %v: steps counter %d, run took %d steps", target, got, res.StepsRun)
		}
		if got := tel.Snapshot().Histograms["step_ns"].Count; got != int64(res.StepsRun) {
			t.Fatalf("target %v: step histogram holds %d samples, run took %d steps", target, got, res.StepsRun)
		}
	}
}

// TestFoldMatchesFlatFold: Fold, reading θ one parameter tensor at a time,
// equals reading θ out flat and one tensor.AxpyDiff (or tensor.Axpy, with no
// base) over the whole vector, in Float64bits, at weight 1 (fed's update sum)
// and at a weight that rounds, on the MLP and on the paper's CNN.
func TestFoldMatchesFlatFold(t *testing.T) {
	paperCNN := func(rng *rand.Rand) (*nn.Network, error) { return nn.NewCNN(nn.MNISTCNNConfig(16, 16), rng) }
	for _, tc := range []struct {
		name string
		side int
		arch ArchFunc
	}{{"mlp", 8, mlp8Arch}, {"paper-cnn", 16, paperCNN}} {
		t.Run(tc.name, func(t *testing.T) {
			task, err := dataset.NewTask(dataset.MNISTLike(tc.side, tc.side))
			if err != nil {
				t.Fatal(err)
			}
			data, err := task.Generate(rand.New(rand.NewSource(1)), 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := tc.arch(rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTrainerPool(proto, data).Borrow(4)
			base := proto.ParamVector()
			if err := tr.LocalUpdate(base, data, 3, 0.1, make([]float64, 2)); err != nil {
				t.Fatal(err)
			}
			theta := tr.net.ParamVector()
			for _, w := range []float64{1, 0.37} {
				for _, b := range [][]float64{base, nil} {
					// A running sum that is not zero, as on a host's second device.
					want := make([]float64, len(base))
					for i := range want {
						want[i] = 1e-3 * float64(i%7-3)
					}
					got := append([]float64(nil), want...)
					if b == nil {
						tensor.Axpy(want, w, theta)
					} else {
						tensor.AxpyDiff(want, w, theta, b)
					}
					tr.Fold(got, b, w, -1)
					requireSameBits(t, fmt.Sprintf("w %v, base %v", w, b != nil), [][]float64{got}, [][]float64{want})
				}
			}
		})
	}
}
