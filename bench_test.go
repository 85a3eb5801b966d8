package mach_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations of the design choices called out in DESIGN.md
// §4 and micro-benchmarks of the substrates. Benchmarks run micro-scale
// configurations so `go test -bench=.` finishes in minutes on one core;
// cmd/machbench runs the full evaluation and EXPERIMENTS.md records its
// results.
//
// Figure/table benches report, via b.ReportMetric:
//
//	steps_to_target   — time steps MACH needed for the target accuracy
//	saved_pct         — % of steps MACH saved vs the best basic baseline
//	final_acc         — MACH's final accuracy

import (
	"math/rand"
	"testing"

	"github.com/mach-fl/mach/internal/bench"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/tensor"
)

// microBench shrinks a CI preset further so a full strategy comparison runs
// in a few seconds per benchmark iteration.
func microBench(task bench.Task) bench.Config {
	cfg := bench.TaskPreset(task, bench.ScaleCI)
	cfg.Devices = 12
	cfg.Edges = 3
	cfg.Steps = 60
	cfg.SamplesPerDevice = 30
	cfg.TestSamples = 200
	cfg.LocalEpochs = 3
	cfg.Runs = 1
	cfg.SmoothWindow = 3
	cfg.TargetAccuracy = 0.5
	if task == bench.TaskCIFAR10 {
		cfg.TargetAccuracy = 0.3
		cfg.Steps = 80
	}
	return cfg
}

func reportComparison(b *testing.B, cmp *bench.Comparison) {
	b.Helper()
	machRes := cmp.Result(bench.StratMACH)
	if machRes == nil {
		b.Fatal("missing MACH result")
	}
	b.ReportMetric(float64(machRes.TimeToTarget), "steps_to_target")
	b.ReportMetric(cmp.SavedPercent(bench.Baselines()), "saved_pct")
	b.ReportMetric(machRes.FinalAccuracy, "final_acc")
}

// ---- Figure 3: time-to-accuracy over all learning tasks ----

func benchmarkFig3(b *testing.B, task bench.Task) {
	for i := 0; i < b.N; i++ {
		cfg := microBench(task)
		cfg.Seed = int64(i + 1)
		r, err := bench.RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, r.Comparison)
	}
}

func BenchmarkFig3MNIST(b *testing.B)   { benchmarkFig3(b, bench.TaskMNIST) }
func BenchmarkFig3FMNIST(b *testing.B)  { benchmarkFig3(b, bench.TaskFMNIST) }
func BenchmarkFig3CIFAR10(b *testing.B) { benchmarkFig3(b, bench.TaskCIFAR10) }

// ---- Figure 4: time to target accuracy vs number of edges ----

func BenchmarkFig4EdgeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := microBench(bench.TaskMNIST)
		cfg.Seed = int64(i + 1)
		r, err := bench.RunEdgeSweep(cfg, []int{2, 3})
		if err != nil {
			b.Fatal(err)
		}
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(float64(last.TimeToTarget[bench.StratMACH]), "steps_to_target")
		b.ReportMetric(last.SavedPercent, "saved_pct")
	}
}

// ---- Figure 5: time to target accuracy vs participation proportion ----

func BenchmarkFig5Participation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := microBench(bench.TaskMNIST)
		cfg.Seed = int64(i + 1)
		r, err := bench.RunParticipationSweep(cfg, []float64{0.4, 0.7})
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := r.Points[0], r.Points[len(r.Points)-1]
		b.ReportMetric(float64(lo.TimeToTarget[bench.StratMACH]), "steps_at_p40")
		b.ReportMetric(float64(hi.TimeToTarget[bench.StratMACH]), "steps_at_p70")
	}
}

// ---- Table I: time steps under different local updating epochs ----

func BenchmarkTable1LocalEpochs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := microBench(bench.TaskMNIST)
		cfg.Seed = int64(i + 1)
		r, err := bench.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Report the full-target, I-epochs row (the paper's middle cell).
		for _, row := range r.Rows {
			if row.TargetLabel == "Target" && row.EpochsLabel == "I" {
				b.ReportMetric(float64(row.Steps[bench.StratMACH]), "steps_to_target")
				b.ReportMetric(row.SavedPercent, "saved_pct")
			}
		}
	}
}

// ---- Ablations (DESIGN.md §4) ----

// runStrategyVariant runs a single strategy on a micro environment and
// returns its final accuracy.
func runStrategyVariant(b *testing.B, cfg bench.Config, strat sampling.Strategy, agg hfl.Aggregation) float64 {
	b.Helper()
	env, err := cfg.BuildEnvironment(0)
	if err != nil {
		b.Fatal(err)
	}
	hcfg := cfg.HFLConfig(0)
	hcfg.Aggregation = agg
	eng, err := hfl.New(hcfg, cfg.Arch(), env.DeviceData, env.Test, env.Schedule, strat)
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res.History.FinalAccuracy()
}

// BenchmarkAblationAggregation compares the three edge-aggregation rules
// under MACH sampling: the paper's literal Eq. (5), the unbiased
// update-space form, and plain FedAvg over participants.
func BenchmarkAblationAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := microBench(bench.TaskMNIST)
		cfg.Seed = int64(i + 1)
		for _, mode := range []struct {
			name string
			agg  hfl.Aggregation
		}{
			{"plain", hfl.AggPlain},
			{"inverse", hfl.AggInverseUpdate},
			{"literal_eq5", hfl.AggLiteralEq5},
		} {
			strat, err := sampling.NewMACH(cfg.Devices, cfg.MACH)
			if err != nil {
				b.Fatal(err)
			}
			acc := runStrategyVariant(b, cfg, strat, mode.agg)
			b.ReportMetric(acc, "final_acc_"+mode.name)
		}
	}
}

// BenchmarkAblationTransfer quantifies the transfer-function smoothing of
// Eq. (17): MACH with S(·) versus the raw Eq. (13) plug-in.
func BenchmarkAblationTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := microBench(bench.TaskMNIST)
		cfg.Seed = int64(i + 1)

		smooth, err := sampling.NewMACH(cfg.Devices, cfg.MACH)
		if err != nil {
			b.Fatal(err)
		}
		rawCfg := cfg.MACH
		rawCfg.RawEq13 = true
		raw, err := sampling.NewMACH(cfg.Devices, rawCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(runStrategyVariant(b, cfg, smooth, hfl.AggPlain), "final_acc_smoothed")
		b.ReportMetric(runStrategyVariant(b, cfg, raw, hfl.AggPlain), "final_acc_raw_eq13")
	}
}

// BenchmarkAblationDiscount compares the literal all-time max of Eq. (15)
// (discount 1) against the discounted max that tracks decaying norms.
func BenchmarkAblationDiscount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := microBench(bench.TaskMNIST)
		cfg.Seed = int64(i + 1)
		for _, d := range []struct {
			name     string
			discount float64
		}{
			{"literal_max", 1.0},
			{"discounted", 0.9},
		} {
			mc := cfg.MACH
			mc.Discount = d.discount
			strat, err := sampling.NewMACH(cfg.Devices, mc)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(runStrategyVariant(b, cfg, strat, hfl.AggPlain), "final_acc_"+d.name)
		}
	}
}

// BenchmarkAblationEstimator compares MACH's device-side UCB estimator
// against statistical sampling's edge-side last-observation estimator in the
// same environment — the cross-edge experience-sharing question of §I.
func BenchmarkAblationEstimator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := microBench(bench.TaskMNIST)
		cfg.Seed = int64(i + 1)
		machStrat, err := sampling.NewMACH(cfg.Devices, cfg.MACH)
		if err != nil {
			b.Fatal(err)
		}
		ssStrat, err := sampling.NewStatistical(cfg.Devices, cfg.MACH.QMin)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(runStrategyVariant(b, cfg, machStrat, hfl.AggPlain), "final_acc_ucb_device")
		b.ReportMetric(runStrategyVariant(b, cfg, ssStrat, hfl.AggPlain), "final_acc_last_edge")
	}
}

// ---- Substrate micro-benchmarks ----

func BenchmarkTensorMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 64, 64)
	y := tensor.Randn(rng, 1, 64, 64)
	dst := tensor.New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, x, y)
	}
}

func BenchmarkConvForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net, err := nn.NewCNN(nn.MNISTCNNConfig(16, 16), rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 8, 1, 16, 16)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	opt := nn.NewSGD(0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainStep(x, labels, opt)
	}
}

func BenchmarkMLPTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net := nn.NewMLP("bench", 64, []int{32}, 10, rng)
	x := tensor.Randn(rng, 1, 8, 64)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	opt := nn.NewSGD(0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainStep(x, labels, opt)
	}
}

func BenchmarkScheduleGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mobility.GenerateSchedule(int64(i+1), 10, 100, 200, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMACHProbabilities(b *testing.B) {
	strat, err := sampling.NewMACH(100, sampling.DefaultMACHConfig())
	if err != nil {
		b.Fatal(err)
	}
	for m := 0; m < 100; m++ {
		strat.ObserveBatch(0, []int{0}, []int{m}, [][]float64{{float64(m) + 1}})
	}
	strat.CloudRound(1)
	members := make([]int, 10)
	for i := range members {
		members[i] = i * 10
	}
	ctx := &sampling.EdgeContext{
		Step: 5, Capacity: 5, Members: members,
		RNG: rand.New(rand.NewSource(4)),
	}
	var q []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q = strat.ProbabilitiesInto(ctx, q)
	}
}

func BenchmarkNonIIDPartition(b *testing.B) {
	task, err := dataset.NewTask(dataset.MNISTLike(16, 16))
	if err != nil {
		b.Fatal(err)
	}
	cfg := dataset.PartitionConfig{
		Devices: 100, SamplesPerDevice: 80,
		TailRatio: 0.2, GlobalTailRatio: 0.6, Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := dataset.Partition(task, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHFLTimeStep(b *testing.B) {
	cfg := microBench(bench.TaskMNIST)
	cfg.Steps = 1
	env, err := cfg.BuildEnvironment(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		strat, err := sampling.NewMACH(cfg.Devices, cfg.MACH)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := hfl.New(cfg.HFLConfig(i), cfg.Arch(), env.DeviceData, env.Test, env.Schedule, strat)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Extension: Oort-style utility selection (beyond the paper) ----

func BenchmarkExtensionOort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := microBench(bench.TaskMNIST)
		cfg.Seed = int64(i + 1)
		oort, err := sampling.NewOort(cfg.Devices, sampling.DefaultOortConfig())
		if err != nil {
			b.Fatal(err)
		}
		machStrat, err := sampling.NewMACH(cfg.Devices, cfg.MACH)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(runStrategyVariant(b, cfg, oort, hfl.AggPlain), "final_acc_oort")
		b.ReportMetric(runStrategyVariant(b, cfg, machStrat, hfl.AggPlain), "final_acc_mach")
	}
}
