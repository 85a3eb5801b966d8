package bench

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/nn"
)

// microConfig is small enough for unit tests to run in well under a second.
func microConfig() Config {
	cfg := TaskPreset(TaskMNIST, ScaleCI)
	cfg.Devices = 8
	cfg.Edges = 2
	cfg.Steps = 12
	cfg.SamplesPerDevice = 20
	cfg.TestSamples = 60
	cfg.LocalEpochs = 2
	cfg.BatchSize = 4
	cfg.Runs = 1
	cfg.EvalEvery = 2
	cfg.SmoothWindow = 1
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := microConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad model", func(c *Config) { c.Model = "transformer" }},
		{"tiny image", func(c *Config) { c.ImageSize = 2 }},
		{"zero edges", func(c *Config) { c.Edges = 0 }},
		{"zero runs", func(c *Config) { c.Runs = 0 }},
		{"target 1", func(c *Config) { c.TargetAccuracy = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := microConfig()
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestTaskPresetsMirrorPaperSetup(t *testing.T) {
	for _, task := range AllTasks() {
		full := TaskPreset(task, ScaleFull)
		if full.Edges != 10 || full.Devices != 100 {
			t.Fatalf("%s: full preset topology %d/%d, want 10 edges / 100 devices", task, full.Edges, full.Devices)
		}
		if full.Participation != 0.5 {
			t.Fatalf("%s: participation %v, want 0.5", task, full.Participation)
		}
		if full.LocalEpochs != 10 {
			t.Fatalf("%s: local epochs %d, want 10", task, full.LocalEpochs)
		}
		wantTg := 5
		if task == TaskCIFAR10 {
			wantTg = 10 // the paper uses T_g=10 for CIFAR-10
		}
		if full.CloudInterval != wantTg {
			t.Fatalf("%s: Tg %d, want %d", task, full.CloudInterval, wantTg)
		}
		if err := full.Validate(); err != nil {
			t.Fatalf("%s full preset invalid: %v", task, err)
		}
		ci := TaskPreset(task, ScaleCI)
		if err := ci.Validate(); err != nil {
			t.Fatalf("%s ci preset invalid: %v", task, err)
		}
		if ci.Devices >= full.Devices || ci.Steps >= full.Steps {
			t.Fatalf("%s: CI preset not smaller than full", task)
		}
	}
}

// TestPresetArchitecturesCompileOnLane32: every preset architecture — each
// task's MLP and CNN — compiles onto the f32 lane, which has ops for Dense,
// Conv2D, ReLU, MaxPool and Flatten only.
func TestPresetArchitecturesCompileOnLane32(t *testing.T) {
	for _, task := range AllTasks() {
		for _, model := range []string{"mlp", "cnn"} {
			cfg := TaskPreset(task, ScaleFull)
			cfg.Model = model
			net, err := cfg.Arch()(rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatalf("%s/%s: %v", task, model, err)
			}
			if _, err := nn.NewLane32(net, 1); err != nil {
				t.Errorf("%s/%s: %v", task, model, err)
			}
		}
	}
}

func TestNewStrategyNames(t *testing.T) {
	cfg := microConfig()
	for _, name := range AllStrategies() {
		t.Run(name, func(t *testing.T) {
			s, err := cfg.NewStrategy(name)
			if err != nil {
				t.Fatal(err)
			}
			if s.Name() != name {
				t.Fatalf("strategy %q reports name %q", name, s.Name())
			}
		})
	}
	// The retired Oort strategy is an unknown name like any other.
	for _, name := range []string{"nope", "oort"} {
		if _, err := cfg.NewStrategy(name); err == nil {
			t.Fatalf("expected error for unknown strategy %q", name)
		}
	}
}

func TestBuildEnvironmentShapes(t *testing.T) {
	cfg := microConfig()
	env, err := cfg.BuildEnvironment(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.DeviceData) != cfg.Devices {
		t.Fatalf("%d device datasets", len(env.DeviceData))
	}
	for m, d := range env.DeviceData {
		if d.Len() != cfg.SamplesPerDevice {
			t.Fatalf("device %d has %d samples", m, d.Len())
		}
	}
	if env.Test.Len() != cfg.TestSamples {
		t.Fatalf("test set has %d samples", env.Test.Len())
	}
	if env.Schedule.Edges != cfg.Edges || env.Schedule.Devices != cfg.Devices {
		t.Fatalf("schedule dims %d/%d", env.Schedule.Edges, env.Schedule.Devices)
	}
	// Different run indices produce different environments.
	env2, err := cfg.BuildEnvironment(1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for tt := 0; tt < env.Schedule.Steps && same; tt++ {
		for m := 0; m < cfg.Devices; m++ {
			if env.Schedule.EdgeOf(tt, m) != env2.Schedule.EdgeOf(tt, m) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("run 0 and run 1 share the same mobility schedule")
	}
}

func TestBuildEnvironmentGlobalTestLaw(t *testing.T) {
	cfg := microConfig()
	cfg.TestLaw = "global"
	cfg.TestSamples = 2000
	env, err := cfg.BuildEnvironment(0)
	if err != nil {
		t.Fatal(err)
	}
	// The global training mixture is long-tailed, so a "global" test set
	// must be visibly imbalanced, unlike the balanced default.
	dist := env.Test.ClassDistribution()
	spread := 0.0
	for _, p := range dist {
		if p > spread {
			spread = p
		}
	}
	if spread < 0.15 {
		t.Fatalf("global test law looks balanced: max class mass %.3f", spread)
	}
}

func TestRunStrategyProducesCurve(t *testing.T) {
	cfg := microConfig()
	res, err := RunStrategy(cfg, StratUniform)
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Len() == 0 {
		t.Fatal("no evaluation points")
	}
	if res.TimeToTarget == 0 {
		t.Fatal("time-to-target not populated")
	}
	if !res.Reached && res.TimeToTarget != cfg.Steps {
		t.Fatalf("unreached target must report the step budget, got %d", res.TimeToTarget)
	}
}

func TestRunComparisonAndSavedPercent(t *testing.T) {
	cfg := microConfig()
	cmp, err := RunComparison(cfg, []string{StratUniform, StratMACH})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Result(StratUniform) == nil || cmp.Result(StratMACH) == nil {
		t.Fatal("missing results")
	}
	if cmp.Result("missing") != nil {
		t.Fatal("unknown strategy should be nil")
	}
	// SavedPercent must be finite and defined even on micro runs.
	_ = cmp.SavedPercent([]string{StratUniform})
}

func TestRenderFunctionsProduceOutput(t *testing.T) {
	cfg := microConfig()
	fig3, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderFig3(&sb, fig3); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 3", "uniform", "mach-p", "time to target"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig3 output missing %q:\n%s", want, out)
		}
	}

	sweep, err := RunEdgeSweep(cfg, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := RenderSweep(&sb, sweep, "Figure 4"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 4") || !strings.Contains(sb.String(), "edges") {
		t.Fatalf("sweep output malformed:\n%s", sb.String())
	}
}

func TestRunParticipationSweepPoints(t *testing.T) {
	cfg := microConfig()
	sweep, err := RunParticipationSweep(cfg, []float64{0.4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 2 {
		t.Fatalf("%d sweep points", len(sweep.Points))
	}
	for _, pt := range sweep.Points {
		for _, name := range AllStrategies() {
			if _, ok := pt.TimeToTarget[name]; !ok {
				t.Fatalf("sweep point %.1f missing strategy %s", pt.Value, name)
			}
		}
	}
}

func TestRunTable1RowsAndLayout(t *testing.T) {
	cfg := microConfig()
	table, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 { // 2 target levels × 3 epoch cells
		t.Fatalf("%d rows, want 6", len(table.Rows))
	}
	labels := map[string]int{}
	for _, row := range table.Rows {
		labels[row.EpochsLabel]++
		if row.Steps[StratMACH] == 0 {
			t.Fatal("missing MACH cell")
		}
	}
	for _, l := range []string{"0.8I", "I", "1.2I"} {
		if labels[l] != 2 {
			t.Fatalf("epoch label %s appears %d times, want 2", l, labels[l])
		}
	}
	var sb strings.Builder
	if err := RenderTable1(&sb, table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table I") || !strings.Contains(sb.String(), "0.8I") {
		t.Fatalf("table output malformed:\n%s", sb.String())
	}
}

func TestRenderCurveASCII(t *testing.T) {
	var sb strings.Builder
	RenderCurveASCII(&sb, "test", []int{0, 5, 10}, []float64{0, 0.5, 1}, 20, 5)
	out := sb.String()
	if !strings.Contains(out, "test") || !strings.Contains(out, "*") {
		t.Fatalf("ASCII curve malformed:\n%s", out)
	}
	// Degenerate inputs must not panic or emit anything.
	sb.Reset()
	RenderCurveASCII(&sb, "empty", nil, nil, 20, 5)
	if sb.Len() != 0 {
		t.Fatal("empty curve should render nothing")
	}
}

func TestSavedPercentAgainstKnownSteps(t *testing.T) {
	// Mirrors the paper's Table I arithmetic: MACH 110 vs best baseline
	// 155 → 29.03% saved.
	got := savedPercent(110, []int{155, 255, 180})
	if got < 29.0 || got > 29.1 {
		t.Fatalf("savedPercent = %v, want ≈ 29.03", got)
	}
	if savedPercent(100, nil) != 0 {
		t.Fatal("no baselines should yield 0")
	}
	_ = metrics.SavedPercent // keep the metrics linkage explicit
}

func TestRunAblationsSuite(t *testing.T) {
	cfg := microConfig()
	results, err := RunAblations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d ablation suites, want 4", len(results))
	}
	for _, r := range results {
		if len(r.Variants) < 2 {
			t.Fatalf("suite %q has %d variants", r.Name, len(r.Variants))
		}
		for _, v := range r.Variants {
			if v.FinalAccuracy <= 0 || v.FinalAccuracy > 1 {
				t.Fatalf("suite %q variant %q accuracy %v", r.Name, v.Label, v.FinalAccuracy)
			}
		}
	}
	var sb strings.Builder
	if err := RenderAblations(&sb, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Ablation: aggregation") {
		t.Fatalf("render missing suite header:\n%s", sb.String())
	}
}

func TestRunStrategyIsReproducible(t *testing.T) {
	cfg := microConfig()
	a, err := RunStrategy(cfg, StratMACH)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStrategy(cfg, StratMACH)
	if err != nil {
		t.Fatal(err)
	}
	if a.History.Len() != b.History.Len() {
		t.Fatalf("history lengths differ: %d vs %d", a.History.Len(), b.History.Len())
	}
	for i := range a.History.Points {
		if a.History.Points[i] != b.History.Points[i] {
			t.Fatalf("histories diverge at %d: %+v vs %+v — the whole pipeline must be seed-deterministic",
				i, a.History.Points[i], b.History.Points[i])
		}
	}
}
