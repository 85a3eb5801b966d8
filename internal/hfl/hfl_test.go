package hfl

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
)

// tinyArch is a small MLP over 4×4 single-channel images, fast enough for
// unit tests.
func tinyArch(rng *rand.Rand) (*nn.Network, error) {
	return nn.NewMLP("tiny", 16, []int{16}, 10, rng), nil
}

// tinySetup builds a full experiment: task, non-IID devices, test set and
// mobility schedule.
func tinySetup(t *testing.T, devices, edges, steps int, seed int64) ([]*dataset.Dataset, *dataset.Dataset, *mobility.Schedule) {
	t.Helper()
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.Partition(task, dataset.PartitionConfig{
		Devices: devices, SamplesPerDevice: 40, TailRatio: 0.4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	test, err := task.Generate(rand.New(rand.NewSource(seed+1)), 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := mobility.GenerateSchedule(seed+2, edges, devices, steps, 3)
	if err != nil {
		t.Fatal(err)
	}
	return parts, test, sched
}

func tinyConfig(steps int, seed int64) Config {
	return Config{
		Steps:         steps,
		CloudInterval: 5,
		LocalEpochs:   2,
		BatchSize:     4,
		LearningRate:  0.05,
		LRDecay:       1,
		Participation: 0.5,
		Seed:          seed,
	}
}

func TestConfigValidate(t *testing.T) {
	valid := DefaultConfig()
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero steps", func(c *Config) { c.Steps = 0 }},
		{"zero interval", func(c *Config) { c.CloudInterval = 0 }},
		{"zero epochs", func(c *Config) { c.LocalEpochs = 0 }},
		{"zero batch", func(c *Config) { c.BatchSize = 0 }},
		{"zero lr", func(c *Config) { c.LearningRate = 0 }},
		{"bad decay", func(c *Config) { c.LRDecay = 0 }},
		{"decay above one", func(c *Config) { c.LRDecay = 1.5 }},
		{"zero participation", func(c *Config) { c.Participation = 0 }},
		{"participation above one", func(c *Config) { c.Participation = 1.1 }},
		{"negative eval", func(c *Config) { c.EvalEvery = -1 }},
		{"negative eval batch", func(c *Config) { c.EvalBatch = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := valid
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	parts, test, sched := tinySetup(t, 6, 2, 10, 1)
	cfg := tinyConfig(10, 1)
	uni := sampling.NewUniform()

	if _, err := New(cfg, tinyArch, parts[:3], test, sched, uni); err == nil {
		t.Fatal("expected device-count mismatch error")
	}
	if _, err := New(cfg, tinyArch, parts, nil, sched, uni); err == nil {
		t.Fatal("expected empty test set error")
	}
	if _, err := New(cfg, tinyArch, parts, test, nil, uni); err == nil {
		t.Fatal("expected nil schedule error")
	}
	if _, err := New(cfg, tinyArch, parts, test, sched, nil); err == nil {
		t.Fatal("expected nil strategy error")
	}
	short := tinyConfig(50, 1) // schedule only covers 10 steps
	if _, err := New(short, tinyArch, parts, test, sched, uni); err == nil {
		t.Fatal("expected short-schedule error")
	}
	bad := tinyConfig(10, 1)
	bad.Steps = 0
	if _, err := New(bad, tinyArch, parts, test, sched, uni); err == nil {
		t.Fatal("expected config error")
	}
}

func TestRunProducesHistoryAndLearns(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 2, 40, 2)
	eng, err := New(tinyConfig(40, 2), tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRun != 40 {
		t.Fatalf("ran %d steps", res.StepsRun)
	}
	if res.History.Len() == 0 {
		t.Fatal("no evaluations recorded")
	}
	if res.History.FinalAccuracy() < 0.35 {
		t.Fatalf("model failed to learn: final accuracy %.3f", res.History.FinalAccuracy())
	}
	if res.TotalSampled == 0 {
		t.Fatal("no devices ever sampled")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	run := func() []float64 {
		parts, test, sched := tinySetup(t, 8, 3, 20, 3)
		mach, err := sampling.NewMACH(8, sampling.DefaultMACHConfig())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(tinyConfig(20, 3), tinyArch, parts, test, sched, mach)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		var accs []float64
		for _, p := range res.History.Points {
			accs = append(accs, p.Accuracy)
		}
		accs = append(accs, eng.GlobalParams()[0])
		return accs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("history lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v (parallel edges must not break determinism)", i, a[i], b[i])
		}
	}
}

func TestExpectedParticipationMatchesCapacity(t *testing.T) {
	parts, test, sched := tinySetup(t, 12, 3, 60, 4)
	cfg := tinyConfig(60, 4)
	cfg.Participation = 0.5
	eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// E[participants per step] = participation × devices = 6.
	mean := float64(res.TotalSampled) / float64(res.StepsRun)
	if mean < 4.5 || mean > 7.5 {
		t.Fatalf("mean participation %.2f, want ≈ 6", mean)
	}
	if got := eng.Capacity(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("capacity = %v, want 2 (0.5×12/3)", got)
	}
}

func TestEarlyStopAtTarget(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 2, 60, 5)
	eng, err := New(tinyConfig(60, 5), tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(WithTarget(0.2)) // trivially reachable
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedTarget {
		t.Fatal("target never reached")
	}
	if res.TargetStep == 0 || res.StepsRun > 60 {
		t.Fatalf("bad early stop: step %d after %d steps", res.TargetStep, res.StepsRun)
	}
	if res.StepsRun != res.TargetStep {
		t.Fatalf("run continued past target: %d vs %d", res.StepsRun, res.TargetStep)
	}
}

func TestHooksAreInvoked(t *testing.T) {
	parts, test, sched := tinySetup(t, 6, 2, 10, 6)
	eng, err := New(tinyConfig(10, 6), tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	steps, evals := 0, 0
	_, err = eng.Run(
		WithStepHook(func(step, sampled int) { steps++ }),
		WithEvalHook(func(step int, acc, loss float64) { evals++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 10 {
		t.Fatalf("step hook fired %d times, want 10", steps)
	}
	if evals != 2 { // cloud rounds at steps 5 and 10
		t.Fatalf("eval hook fired %d times, want 2", evals)
	}
}

func TestAllStrategiesRunEndToEnd(t *testing.T) {
	mach, err := sampling.NewMACH(8, sampling.DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	machp, err := sampling.NewMACHP(sampling.DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sampling.NewStatistical(8, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	strategies := []sampling.Strategy{
		sampling.NewUniform(), sampling.NewClassBalance(), ss, mach, machp,
	}
	for _, s := range strategies {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			parts, test, sched := tinySetup(t, 8, 2, 15, 7)
			eng, err := New(tinyConfig(15, 7), tinyArch, parts, test, sched, s)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalSampled == 0 {
				t.Fatal("strategy never sampled a device")
			}
		})
	}
}

func TestLiteralEq5ModeRuns(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 2, 15, 8)
	cfg := tinyConfig(15, 8)
	cfg.Aggregation = AggLiteralEq5
	eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.History.Points {
		if math.IsNaN(p.Loss) {
			t.Fatal("literal Eq. 5 run produced NaN loss")
		}
	}
}

func TestLRDecayApplied(t *testing.T) {
	parts, test, sched := tinySetup(t, 6, 2, 10, 9)
	cfg := tinyConfig(10, 9)
	cfg.LRDecay = 0.5
	eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 10 steps with Tg=5 → 2 cloud rounds → lr × 0.25.
	want := 0.05 * 0.25
	if math.Abs(eng.lr-want) > 1e-12 {
		t.Fatalf("device lr = %v, want %v", eng.lr, want)
	}
}

// Lemma 1: with inverse-probability weights, the expected aggregated edge
// model equals the plain average of the member models, regardless of the
// sampling probabilities. Verified by Monte Carlo over the update-space
// aggregation rule.
func TestEdgeAggregationUnbiasedness(t *testing.T) {
	parts, test, sched := tinySetup(t, 4, 1, 5, 10)
	eng, err := New(tinyConfig(5, 10), tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	dim := len(eng.global)
	memberParams := make([][]float64, 4)
	rng := rand.New(rand.NewSource(42))
	for i := range memberParams {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		memberParams[i] = v
	}
	probs := []float64{0.9, 0.5, 0.3, 0.7} // deliberately non-uniform
	base := append([]float64(nil), eng.edge[0]...)
	const trials = 4000
	sum := make([]float64, dim)
	for trial := 0; trial < trials; trial++ {
		copy(eng.edge[0], base)
		var results []localResult
		for i, q := range probs {
			if rng.Float64() < q {
				results = append(results, localResult{
					params: memberParams[i],
					weight: 1 / (4 * q),
				})
			}
		}
		eng.aggregateEdge(0, results, true)
		for j := range sum {
			sum[j] += eng.edge[0][j]
		}
	}
	// E[w'] should equal mean of member params.
	for j := 0; j < 10; j++ { // spot-check the first coordinates
		want := (memberParams[0][j] + memberParams[1][j] + memberParams[2][j] + memberParams[3][j]) / 4
		got := sum[j] / trials
		if math.Abs(got-want) > 0.08 {
			t.Fatalf("coordinate %d: E[aggregate] = %v, want %v", j, got, want)
		}
	}
}

func TestEvaluateConfusion(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 2, 30, 12)
	eng, err := New(tinyConfig(30, 12), tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	conf, err := eng.EvaluateConfusion()
	if err != nil {
		t.Fatal(err)
	}
	if conf.Total() != test.Len() {
		t.Fatalf("confusion covers %d samples, want %d", conf.Total(), test.Len())
	}
	// Confusion accuracy must match the engine's final evaluation.
	if diff := conf.Accuracy() - res.History.FinalAccuracy(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("confusion accuracy %.4f vs history %.4f", conf.Accuracy(), res.History.FinalAccuracy())
	}
}

func TestCloudAggregationSynchronizesEdges(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 3, 10, 11)
	cfg := tinyConfig(10, 11)
	cfg.CloudInterval = 10 // single cloud round at the very end
	eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for n := range eng.edge {
		for j := range eng.edge[n] {
			if eng.edge[n][j] != eng.global[j] {
				t.Fatalf("edge %d diverges from global after cloud round", n)
			}
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 2, 20, 13)
	eng, err := New(tinyConfig(20, 13), tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	want := eng.GlobalParams()

	// A fresh engine restored from the checkpoint starts from the same
	// global model, on the cloud and on every edge.
	parts2, test2, sched2 := tinySetup(t, 8, 2, 20, 13)
	eng2, err := New(tinyConfig(20, 14), tinyArch, parts2, test2, sched2, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got := eng2.GlobalParams()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("checkpoint mismatch at %d", i)
		}
	}
	for n := range eng2.edge {
		for j := range eng2.edge[n] {
			if eng2.edge[n][j] != want[j] {
				t.Fatalf("edge %d not restored", n)
			}
		}
	}
	if err := eng2.LoadCheckpoint(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("expected error for corrupt checkpoint")
	}
}

func TestUploadFailuresReduceAggregation(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 2, 20, 15)
	cfg := tinyConfig(20, 15)
	cfg.UploadFailureProb = 0.95
	eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	before := eng.GlobalParams()
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With 95% of uploads lost, very few contributions land.
	mean := float64(res.TotalSampled) / float64(res.StepsRun)
	if mean > 1.5 {
		t.Fatalf("mean successful uploads per step %.2f, want ≤ 1.5", mean)
	}
	after := eng.GlobalParams()
	moved := 0.0
	for i := range before {
		d := after[i] - before[i]
		moved += d * d
	}
	// The model still moves a little (some uploads survive).
	if moved == 0 {
		t.Fatal("no update ever landed despite surviving uploads")
	}
	bad := cfg
	bad.UploadFailureProb = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for probability 1")
	}
}

// errArch fails construction, exercising New's error path.
func errArch(rng *rand.Rand) (*nn.Network, error) {
	return nil, errBoom
}

var errBoom = errors.New("boom")

func TestNewSurfacesArchError(t *testing.T) {
	parts, test, sched := tinySetup(t, 6, 2, 10, 16)
	if _, err := New(tinyConfig(10, 16), errArch, parts, test, sched, sampling.NewUniform()); !errors.Is(err, errBoom) {
		t.Fatalf("arch error not surfaced: %v", err)
	}
}

// badStrategy returns a wrong-length probability vector.
type badStrategy struct{}

func (badStrategy) Name() string   { return "bad" }
func (badStrategy) Unbiased() bool { return true }
func (badStrategy) ProbabilitiesInto(_ *sampling.EdgeContext, dst []float64) []float64 {
	return append(dst[:0], 0.5) // wrong length for any edge with ≠1 members
}

func TestRunSurfacesBadStrategy(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 1, 10, 17) // 1 edge → 8 members
	eng, err := New(tinyConfig(10, 17), tinyArch, parts, test, sched, badStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("expected error for wrong-length probabilities")
	}
}

// zeroProbStrategy claims to be unbiased but can sample at probability 0
// boundary — the engine must reject a sampled q ≤ 0.
type zeroProbStrategy struct{}

func (zeroProbStrategy) Name() string   { return "zerop" }
func (zeroProbStrategy) Unbiased() bool { return true }
func (zeroProbStrategy) ProbabilitiesInto(ctx *sampling.EdgeContext, dst []float64) []float64 {
	// all zeros: never sampled, so Run proceeds with no training
	return append(dst[:0], make([]float64, len(ctx.Members))...)
}

func TestRunToleratesNeverSamplingStrategy(t *testing.T) {
	parts, test, sched := tinySetup(t, 6, 2, 10, 18)
	eng, err := New(tinyConfig(10, 18), tinyArch, parts, test, sched, zeroProbStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSampled != 0 {
		t.Fatalf("zero-probability strategy sampled %d devices", res.TotalSampled)
	}
}

func TestCommStatsAccounting(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 2, 10, 19)
	eng, err := New(tinyConfig(10, 19), tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	modelBytes := int64(len(eng.global)) * 8
	// Without upload failures, uplink = downlink = TotalSampled × model.
	wantDevice := int64(res.TotalSampled) * modelBytes
	if res.Comm.DeviceUplinkBytes != wantDevice || res.Comm.DeviceDownlinkBytes != wantDevice {
		t.Fatalf("device comm %d/%d, want %d", res.Comm.DeviceUplinkBytes, res.Comm.DeviceDownlinkBytes, wantDevice)
	}
	// 10 steps / Tg=5 → 2 cloud rounds × 2 edges × 2 directions.
	wantCloud := int64(2*2*2) * modelBytes
	if res.Comm.CloudBytes != wantCloud {
		t.Fatalf("cloud comm %d, want %d", res.Comm.CloudBytes, wantCloud)
	}
	if res.Comm.Total() != 2*wantDevice+wantCloud {
		t.Fatalf("total %d", res.Comm.Total())
	}
}

func TestCommStatsUploadFailuresSplitCounts(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 2, 20, 20)
	cfg := tinyConfig(20, 20)
	cfg.UploadFailureProb = 0.5
	eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Roughly half the trained devices fail to upload: downlink must
	// exceed uplink.
	if res.Comm.DeviceDownlinkBytes <= res.Comm.DeviceUplinkBytes {
		t.Fatalf("downlink %d not above uplink %d under upload failures",
			res.Comm.DeviceDownlinkBytes, res.Comm.DeviceUplinkBytes)
	}
}

func TestCloudAggregateIsMemberWeightedMean(t *testing.T) {
	parts, test, sched := tinySetup(t, 9, 3, 10, 21)
	eng, err := New(tinyConfig(10, 21), tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite edge models with known constants.
	for n := range eng.edge {
		for j := range eng.edge[n] {
			eng.edge[n][j] = float64(n + 1)
		}
	}
	const step = 4
	counts := make([]int, 3)
	total := 0
	for n := 0; n < 3; n++ {
		counts[n] = len(sched.MembersAt(step, n))
		total += counts[n]
	}
	eng.cloudAggregate(step)
	want := 0.0
	for n, c := range counts {
		want += float64(n+1) * float64(c) / float64(total)
	}
	for j := range eng.global {
		if math.Abs(eng.global[j]-want) > 1e-12 {
			t.Fatalf("global[%d] = %v, want %v", j, eng.global[j], want)
		}
	}
}
