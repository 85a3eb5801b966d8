package mach_test

import (
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/mach-fl/mach"
)

// TestFacadeEndToEnd drives the whole library through the public facade
// exactly as the package documentation advertises.
func TestFacadeEndToEnd(t *testing.T) {
	task, err := mach.NewTask(mach.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	devices, err := mach.Partition(task, mach.PartitionConfig{
		Devices: 8, SamplesPerDevice: 30, TailRatio: 0.4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	test, err := task.Generate(rand.New(rand.NewSource(2)), 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := mach.GenerateSchedule(3, 2, 8, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	strategy, err := mach.NewMACH(8, mach.DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	arch := func(rng *rand.Rand) (*mach.Network, error) {
		return mach.NewMLP("facade", 16, []int{8}, 10, rng), nil
	}
	cfg := mach.EngineConfig{
		Steps:         20,
		CloudInterval: 5,
		LocalEpochs:   2,
		BatchSize:     4,
		LearningRate:  0.05,
		Participation: 0.5,
		Seed:          4,
		Aggregation:   mach.AggPlain,
	}
	engine, err := mach.NewEngine(cfg, arch, devices, test, schedule, strategy)
	if err != nil {
		t.Fatal(err)
	}
	evals := 0
	result, err := engine.Run(mach.WithEvalHook(func(step int, acc, loss float64) { evals++ }))
	if err != nil {
		t.Fatal(err)
	}
	if result.StepsRun != 20 || result.History.Len() == 0 || evals == 0 {
		t.Fatalf("facade run incomplete: steps=%d evals=%d", result.StepsRun, evals)
	}
}

// TestFacadeStrategiesConstruct builds every strategy the facade names
// through an evaluation preset, as examples/mobility does: each reports its
// own name and is unbiased, so the preset runs may compare them.
func TestFacadeStrategiesConstruct(t *testing.T) {
	preset := mach.TaskPreset(mach.TaskMNIST, mach.ScaleCI)
	for _, name := range []string{mach.StratUniform, mach.StratStatistical, mach.StratMACH} {
		t.Run(name, func(t *testing.T) {
			s, err := preset.NewStrategy(name)
			if err != nil {
				t.Fatal(err)
			}
			if s.Name() != name {
				t.Fatalf("strategy %q reports name %q", name, s.Name())
			}
			if !s.Unbiased() {
				t.Fatalf("%s must be unbiased", name)
			}
		})
	}
}

// TestFacadeMobilityPipeline runs the telecom-trace pipeline of
// examples/mobility through the facade: placed stations, a waypoint trace,
// k-means edges and the schedule they induce.
func TestFacadeMobilityPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stations, err := mach.PlaceStations(rng, 6, mach.DefaultPlacement())
	if err != nil {
		t.Fatal(err)
	}
	trace, err := mach.GenerateWaypointTrace(rng, stations, 4, 15, mach.DefaultWaypoint())
	if err != nil {
		t.Fatal(err)
	}
	if trace.Devices() != 4 {
		t.Fatalf("trace covers %d devices", trace.Devices())
	}
	edgeOf, err := mach.ClusterStations(rng, stations, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := mach.BuildSchedule(trace, edgeOf, 2, 4, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCommStats(t *testing.T) {
	task, err := mach.NewTask(mach.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	devices, err := mach.Partition(task, mach.PartitionConfig{
		Devices: 8, SamplesPerDevice: 20, TailRatio: 0.5, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	test, err := task.Generate(rand.New(rand.NewSource(7)), 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := mach.GenerateSchedule(8, 2, 8, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	strategy, err := mach.NewMACH(8, mach.DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	arch := func(rng *rand.Rand) (*mach.Network, error) {
		return mach.NewMLP("facade-comm", 16, []int{8}, 10, rng), nil
	}
	cfg := mach.EngineConfig{
		Steps: 12, CloudInterval: 4, LocalEpochs: 2, BatchSize: 4,
		LearningRate: 0.05, Participation: 0.5, Seed: 9,
	}
	engine, err := mach.NewEngine(cfg, arch, devices, test, schedule, strategy)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Total() <= 0 {
		t.Fatal("no communication recorded")
	}
	if res.Comm.DeviceUplinkBytes != res.Comm.DeviceDownlinkBytes {
		t.Fatal("uplink/downlink mismatch without failures")
	}
	conf, err := engine.EvaluateConfusion()
	if err != nil {
		t.Fatal(err)
	}
	if conf.Total() != 100 {
		t.Fatalf("confusion total %d", conf.Total())
	}
}

// TestExamplesImportOnlyFacade keeps every example copyable out of the
// module: an examples/*/main.go may import the facade and the standard
// library, never an internal package.
func TestExamplesImportOnlyFacade(t *testing.T) {
	files, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		t.Run(filepath.Base(filepath.Dir(path)), func(t *testing.T) {
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "github.com/mach-fl/mach/internal/") {
					t.Errorf("%s imports %s; examples build against the mach facade only", path, p)
				}
			}
		})
	}
}
