package hfl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
)

// runLane runs the standard parallel-test experiment (12 devices, 3 edges,
// 12 steps, MACH sampling) under the given compute lane / fusion / worker
// knobs and returns the result and final global parameters.
func runLane(t *testing.T, lane Lane, fuse bool, workers int) (*Result, []float64) {
	t.Helper()
	parts, test, sched := tinySetup(t, 12, 3, 12, 21)
	cfg := tinyConfig(12, 21)
	cfg.Workers = workers
	cfg.UploadFailureProb = 0.2
	cfg.EvalBatch = 100
	cfg.Lane = lane
	cfg.FuseBatch = fuse
	strat, err := sampling.NewMACH(12, sampling.DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cfg, tinyArch, parts, test, sched, strat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.GlobalParams()
}

// mustSameRun asserts two runs are indistinguishable: identical sampling
// decisions, bitwise-identical history and final global parameters.
func mustSameRun(t *testing.T, label string, refRes *Result, refParams []float64, res *Result, params []float64) {
	t.Helper()
	if len(res.SampledPerStep) != len(refRes.SampledPerStep) {
		t.Fatalf("%s: %d steps vs %d", label, len(res.SampledPerStep), len(refRes.SampledPerStep))
	}
	for i, v := range refRes.SampledPerStep {
		if res.SampledPerStep[i] != v {
			t.Fatalf("%s: SampledPerStep[%d] = %d, want %d", label, i, res.SampledPerStep[i], v)
		}
	}
	if res.TotalSampled != refRes.TotalSampled || res.Comm != refRes.Comm {
		t.Fatalf("%s: totals diverged: %+v vs %+v", label, res, refRes)
	}
	refPts, pts := refRes.History.Points, res.History.Points
	if len(pts) != len(refPts) {
		t.Fatalf("%s: %d history points vs %d", label, len(pts), len(refPts))
	}
	for i := range refPts {
		if pts[i] != refPts[i] {
			t.Fatalf("%s: history[%d] = %+v, want %+v", label, i, pts[i], refPts[i])
		}
	}
	if len(params) != len(refParams) {
		t.Fatalf("%s: %d params vs %d", label, len(params), len(refParams))
	}
	for j, v := range refParams {
		if math.Float64bits(params[j]) != math.Float64bits(v) {
			t.Fatalf("%s: global param %d = %v, want %v", label, j, params[j], v)
		}
	}
}

// TestRunF32BitIdenticalAcrossWorkerCounts extends the engine's determinism
// contract to the float32 lane: the f32 lane is NOT required to match the
// f64 lane bitwise (it rounds differently by design), but it must be
// bit-identical to itself at every worker count, fused or not.
func TestRunF32BitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, fuse := range []bool{false, true} {
		name := "unfused"
		if fuse {
			name = "fused"
		}
		t.Run(name, func(t *testing.T) {
			refRes, refParams := runLane(t, LaneF32, fuse, 1)
			for _, workers := range []int{3, 8} {
				res, params := runLane(t, LaneF32, fuse, workers)
				mustSameRun(t, name, refRes, refParams, res, params)
			}
		})
	}
}

// TestRunFusedMatchesUnfused is the fusion half of the determinism contract:
// for each lane, enabling Config.FuseBatch changes scheduling (one execution
// task per edge instead of per device) and memory layout, but every device
// still performs the same arithmetic on the same minibatch draws — so the
// fused run must be bit-identical to the unfused run, including the MACH
// sampling decisions fed back from gradient norms.
func TestRunFusedMatchesUnfused(t *testing.T) {
	for _, lane := range []Lane{LaneF64, LaneF32} {
		t.Run(lane.String(), func(t *testing.T) {
			refRes, refParams := runLane(t, lane, false, 4)
			res, params := runLane(t, lane, true, 4)
			mustSameRun(t, lane.String()+"/fused", refRes, refParams, res, params)
		})
	}
}

// TestRunFusedSingleDeviceEqualsUnfused is the degenerate-fusion property:
// with one device on one edge, the fused path has nothing to fuse and must
// reduce exactly to the unfused path in both lanes.
func TestRunFusedSingleDeviceEqualsUnfused(t *testing.T) {
	setup := func(t *testing.T) ([]*dataset.Dataset, *dataset.Dataset, *mobility.Schedule) {
		t.Helper()
		return tinySetup(t, 1, 1, 10, 33)
	}
	for _, lane := range []Lane{LaneF64, LaneF32} {
		t.Run(lane.String(), func(t *testing.T) {
			var refRes *Result
			var refParams []float64
			for _, fuse := range []bool{false, true} {
				parts, test, sched := setup(t)
				cfg := tinyConfig(10, 33)
				cfg.Participation = 1
				cfg.Lane = lane
				cfg.FuseBatch = fuse
				eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !fuse {
					refRes, refParams = res, eng.GlobalParams()
					continue
				}
				mustSameRun(t, lane.String()+"/single", refRes, refParams, res, eng.GlobalParams())
			}
		})
	}
}

// TestRunF32TracksF64 bounds the float32 lane's drift from the float64
// reference. Uniform sampling keeps the device selections identical across
// lanes (MACH feeds gradient norms back into decisions, which would let a
// one-ulp difference flip a sample), so the remaining divergence is pure
// float32 rounding in forward/backward. The float64 master weights must stay
// close elementwise and the final accuracy must agree within tolerance.
// scripts/check.sh runs this test as the f32-lane + fusion smoke.
func TestRunF32TracksF64(t *testing.T) {
	run := func(lane Lane, fuse bool) (*Result, []float64) {
		parts, test, sched := tinySetup(t, 12, 3, 12, 21)
		cfg := tinyConfig(12, 21)
		cfg.Lane = lane
		cfg.FuseBatch = fuse
		eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, eng.GlobalParams()
	}
	refRes, refParams := run(LaneF64, false)
	refAcc := refRes.History.Points[len(refRes.History.Points)-1].Accuracy
	for _, fuse := range []bool{false, true} {
		res, params := run(LaneF32, fuse)
		acc := res.History.Points[len(res.History.Points)-1].Accuracy
		if d := math.Abs(acc - refAcc); d > 0.05 {
			t.Fatalf("fuse=%v: f32 final accuracy %.4f drifted %.4f from f64 %.4f", fuse, acc, d, refAcc)
		}
		for j, v := range refParams {
			if d := math.Abs(params[j] - v); d > 1e-2*math.Max(1, math.Abs(v)) {
				t.Fatalf("fuse=%v: param %d = %v, f64 %v (diff %v)", fuse, j, params[j], v, d)
			}
		}
	}
}

// TestRunF32GoldenAcrossBuilds pins the f32 lane's arithmetic: a seeded MACH
// run of the paper's 2-conv CNN (16×16 inputs, batch 8 — the shapes every f32
// kernel form, tile and tail is built for), fused and unfused, must reproduce
// one digest of the evaluation history and the final global model.
// scripts/check.sh runs this package under -tags purego as well, so the one
// value proves AVX2 kernels ≡ pure-Go loops. It was re-pinned once, kernels
// untouched, when the keyed streams moved to det.Stream; the digest it
// replaced, recorded at the commit before the lane got vector kernels
// (6f99131), is in DESIGN.md §5's re-pin record.
func TestRunF32GoldenAcrossBuilds(t *testing.T) {
	const want = 0xfbdd056f8900c935
	arch := func(rng *rand.Rand) (*nn.Network, error) {
		return nn.NewCNN(nn.MNISTCNNConfig(16, 16), rng)
	}
	task, err := dataset.NewTask(dataset.MNISTLike(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, fuse := range []bool{false, true} {
		parts, err := dataset.Partition(task, dataset.PartitionConfig{
			Devices: 8, SamplesPerDevice: 24, TailRatio: 0.4, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		test, err := task.Generate(rand.New(rand.NewSource(6)), 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := mobility.GenerateSchedule(7, 2, 8, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyConfig(4, 5)
		cfg.CloudInterval = 2
		cfg.BatchSize = 8
		cfg.Lane = LaneF32
		cfg.FuseBatch = fuse
		strat, err := sampling.NewMACH(8, sampling.DefaultMACHConfig())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(cfg, arch, parts, test, sched, strat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		word := func(v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for _, p := range res.History.Points {
			word(uint64(p.Step))
			word(math.Float64bits(p.Accuracy))
			word(math.Float64bits(p.Loss))
		}
		for _, v := range eng.GlobalParams() {
			word(math.Float64bits(v))
		}
		if got := h.Sum64(); got != want {
			t.Fatalf("fuse=%v: run digest %#x, want %#x (history %+v)", fuse, got, uint64(want), res.History.Points)
		}
	}
}
