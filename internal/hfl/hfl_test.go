package hfl

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/tensor"
)

// tinyArch is a small MLP over 4×4 single-channel images, fast enough for
// unit tests.
func tinyArch(rng *rand.Rand) (*nn.Network, error) {
	return nn.NewMLP("tiny", 16, []int{16}, 10, rng), nil
}

// tinySetup builds a full experiment over 4×4 images: task, non-IID devices,
// test set and mobility schedule.
func tinySetup(t *testing.T, devices, edges, steps int, seed int64) ([]*dataset.Dataset, *dataset.Dataset, *mobility.Schedule) {
	t.Helper()
	w := layoutWorld{devices: devices, edges: edges, steps: steps, seed: seed, img: 4, samples: 40, tests: 300}
	parts, test, sched := w.build(t, false)
	return parts, test, sched.(*mobility.Schedule)
}

func tinyConfig(steps int, seed int64) Config {
	return Config{
		Steps:         steps,
		CloudInterval: 5,
		LocalEpochs:   2,
		BatchSize:     4,
		LearningRate:  0.05,
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
		{"zero participation", func(c *Config) { c.Participation = 0 }},
		{"participation above one", func(c *Config) { c.Participation = 1.1 }},
		{"negative eval", func(c *Config) { c.EvalEvery = -1 }},
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

// Lemma 1, exactly: every one of the 2^4 sample outcomes of a four-member
// edge is aggregated and weighted by its probability Π q_m or (1 − q_m), so
// the expectation carries no sampling noise. With inverse-probability weights
// on the updates, E[w_n'] is the member mean for any q. The literal Eq. (5)
// form is off by P(∅)·w_n: an empty sample carries the edge model over where
// the formula's Σ would be 0. Plain averaging is biased toward the likely
// members, which shows the enumeration tells the modes apart.
//
// The same enumeration gives the exact second moment E‖w_n' − E w_n'‖², the
// sampling variance Theorem 1 bounds. The independent coins X_m ~ Bern(q_m)
// make it a closed form: Σ_m (1/q_m − 1)·‖θ_m − w_n‖²/|M|² for the inverse
// weights on updates; for the literal form, whose w_n' is Σ X_m θ_m/(|M| q_m)
// plus w_n when the sample is empty, Σ_m (1/q_m − 1)·‖θ_m‖²/|M|² +
// P(∅)(1 − P(∅))·‖w_n‖² − 2·P(∅)·⟨θ̄, w_n⟩, θ̄ the member mean. Under
// the inverse weights that variance, times |M|², is the sampling term of
// Theorem 1 as sampling.VarianceTerm evaluates it, less Σ G²: the bound and
// the aggregation are held to one quantity.
func TestEdgeAggregationUnbiasedness(t *testing.T) {
	probs := []float64{0.9, 0.5, 0.3, 0.7} // deliberately non-uniform
	parts, test, sched := tinySetup(t, len(probs), 1, 5, 10)
	eng, err := New(tinyConfig(5, 10), tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	dim := len(eng.global)
	base := append([]float64(nil), eng.edge[0]...)
	rng := rand.New(rand.NewSource(42))
	members := make([][]float64, len(probs))
	mean := make([]float64, dim)
	for i := range members {
		members[i] = make([]float64, dim)
		for j := range members[i] {
			members[i][j] = rng.NormFloat64()
			mean[j] += members[i][j] / float64(len(probs))
		}
	}
	pEmpty := 1.0
	for _, q := range probs {
		pEmpty *= 1 - q
	}
	sqDist := func(a, b []float64) float64 {
		s := 0.0
		for j := range a {
			s += (a[j] - b[j]) * (a[j] - b[j])
		}
		return s
	}
	zero := make([]float64, dim)
	size := float64(len(probs))
	sizeOf := func(i int) int { return parts[i].Len() } // member i is device i
	tr := eng.trainers.Borrow(eng.cfg.BatchSize)
	plan := &eng.plans[0]
	// enumerate folds every sample outcome into the same edge model the way
	// an edge task does — the plan's weights, foldStart, one Fold per upload
	// in member order, edgeFinalize — with device i's trained model installed
	// as members[i], and hands each result to f with the outcome's
	// probability.
	enumerate := func(t *testing.T, f func(prob float64, agg []float64)) {
		for outcome := 0; outcome < 1<<len(probs); outcome++ {
			prob := 1.0
			plan.Picks, plan.Uploads = plan.Picks[:0], 0
			for i, q := range probs {
				if outcome&(1<<i) == 0 {
					prob *= 1 - q
					continue
				}
				prob *= q
				plan.Picks = append(plan.Picks, Pick{Device: i, Member: i, Weight: 1 / (size * q), Upload: true})
				plan.Uploads++
			}
			if eng.aggregation() == AggPlain {
				plan.plainWeights(sizeOf)
			}
			copy(eng.edge[0], base)
			next, foldBase := eng.foldStart(0)
			for _, pd := range plan.Picks {
				if err := tr.net.SetParamVector(members[pd.Device]); err != nil {
					t.Fatal(err)
				}
				tr.Fold(next, foldBase, pd.Weight, -1)
			}
			eng.edgeFinalize(0)
			f(prob, eng.edge[0])
		}
	}
	for _, mode := range []Aggregation{AggInverseUpdate, AggLiteralEq5, AggPlain} {
		eng.cfg.Aggregation = mode
		t.Run(mode.String(), func(t *testing.T) {
			expect := make([]float64, dim)
			enumerate(t, func(prob float64, agg []float64) { tensor.Axpy(expect, prob, agg) })
			worst := 0.0
			for j := range expect {
				want := mean[j]
				if mode == AggLiteralEq5 {
					want += pEmpty * base[j]
				}
				worst = max(worst, math.Abs(expect[j]-want))
			}
			switch {
			case mode == AggPlain && worst < 0.1:
				t.Fatalf("%v: E[aggregate] is within %.3g of the member mean; plain averaging under non-uniform q should be biased", mode, worst)
			case mode != AggPlain && worst > 1e-12:
				t.Fatalf("%v: E[aggregate] is %.3g from its Lemma 1 value (P(∅) = %v)", mode, worst, pEmpty)
			}
			t.Logf("%v: largest |E[aggregate] − Lemma 1 value| = %.3g", mode, worst)

			if mode == AggPlain {
				return // no closed form to hold it to
			}
			variance := 0.0
			enumerate(t, func(prob float64, agg []float64) { variance += prob * sqDist(agg, expect) })
			want := 0.0
			for i, q := range probs {
				if mode == AggInverseUpdate {
					want += (1/q - 1) * sqDist(members[i], base) / (size * size)
				} else {
					want += (1/q - 1) * sqDist(members[i], zero) / (size * size)
				}
			}
			if mode == AggLiteralEq5 {
				dot := 0.0
				for j := range base {
					dot += mean[j] * base[j]
				}
				want += pEmpty*(1-pEmpty)*sqDist(base, zero) - 2*pEmpty*dot
			}
			if rel := math.Abs(variance-want) / want; rel > 1e-12 {
				t.Fatalf("%v: E‖w' − E w'‖² = %v, closed form %v (relative error %.3g)", mode, variance, want, rel)
			}
			t.Logf("%v: E‖w' − E w'‖² = %v, closed form %v", mode, variance, want)

			if mode == AggInverseUpdate {
				// Theorem 1's sampling term is this variance: with
				// G_m = ‖θ_m − w_n‖, Σ G²/q − Σ G² = |M|²·E‖w' − E w'‖².
				sq := make([]float64, len(probs))
				sum := 0.0
				for i := range probs {
					sq[i] = sqDist(members[i], base)
					sum += sq[i]
				}
				term := sampling.VarianceTerm(sq, probs) - sum
				if rel := math.Abs(term-size*size*variance) / term; rel > 1e-12 {
					t.Fatalf("%v: VarianceTerm(G², q) − Σ G² = %v, |M|²·Var = %v (relative error %.3g)", mode, term, size*size*variance, rel)
				}
			}
		})
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

// TestCloudAggregateIsMemberWeightedMean drives Eq. (6) through Run, on three
// edges and on seventy: a step hook overwrites the edge models with random
// values just before the first cloud round, and the global model that
// round's evaluation scores must be Σ_n (|M_n|/|M|)·w_n folded with
// tensor.Axpy in edge order, bit for bit.
func TestCloudAggregateIsMemberWeightedMean(t *testing.T) {
	for _, world := range []string{"tiny", "wide"} {
		t.Run(world, func(t *testing.T) {
			w := layoutWorlds[world]
			parts, test, src := w.build(t, false)
			cfg := tinyConfig(w.steps, w.seed)
			w.tune(&cfg)
			cfg.Steps = cfg.CloudInterval
			eng, err := New(cfg, w.arch, parts, test, src, sampling.NewUniform())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(w.seed))
			want := make([]float64, len(eng.global))
			evals := 0
			_, err = eng.Run(
				WithStepHook(func(step, _ int) {
					if step != cfg.Steps-1 {
						return
					}
					total := 0
					for n := range eng.edge {
						total += len(eng.Members(n))
					}
					for n, edge := range eng.edge {
						for j := range edge {
							edge[j] = rng.NormFloat64()
						}
						if c := len(eng.Members(n)); c > 0 {
							tensor.Axpy(want, float64(c)/float64(total), edge)
						}
					}
				}),
				WithEvalHook(func(int, float64, float64) {
					evals++
					for j, v := range eng.global {
						if math.Float64bits(v) != math.Float64bits(want[j]) {
							t.Fatalf("global[%d] = %v, want %v", j, v, want[j])
						}
					}
				}))
			if err != nil || evals != 1 {
				t.Fatalf("run: %v after %d evaluations, want 1", err, evals)
			}
		})
	}
}
