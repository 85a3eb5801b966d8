package mach_test

import (
	"math/rand"
	"testing"

	mach "github.com/mach-fl/mach"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
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
		return nn.NewMLP("facade", 16, []int{8}, 10, rng), nil
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

func TestFacadeStrategiesConstruct(t *testing.T) {
	if _, err := mach.NewMACHP(mach.DefaultMACHConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := mach.NewStatistical(4, 0.02); err != nil {
		t.Fatal(err)
	}
	var s mach.Strategy = mach.NewUniform()
	if s.Name() != "uniform" {
		t.Fatal("facade alias broken")
	}
	if mach.NewClassBalance().Unbiased() {
		t.Fatal("class-balance must be biased")
	}
}

func TestFacadeMobilityPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stations := []mach.Station{{ID: 0, X: 0, Y: 0}, {ID: 1, X: 10, Y: 10}}
	trace, err := mach.GenerateMarkovTrace(rng, stations, 4, 15, mach.MarkovConfig{StayProb: 0.8, Neighbors: 1})
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

// TestFacadeLevySource builds a streaming Lévy-walk source through the
// facade alone and drains it into a valid schedule.
func TestFacadeLevySource(t *testing.T) {
	var cfg mach.LevyConfig = mach.DefaultLevy()
	cfg.MaxPause = 0
	src, err := mach.NewLevySource(3, 2, 6, 12, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := mach.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	if sched.Edges != 2 || sched.Devices != 6 || sched.Steps != 12 {
		t.Fatalf("schedule dims %d/%d/%d, want 2/6/12", sched.Edges, sched.Devices, sched.Steps)
	}
}

func TestFacadeOortAndCommStats(t *testing.T) {
	oort, err := mach.NewOort(8, sampling.DefaultOortConfig())
	if err != nil {
		t.Fatal(err)
	}
	task, err := mach.NewTask(mach.FMNISTLike(4, 4))
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
	arch := func(rng *rand.Rand) (*mach.Network, error) {
		return nn.NewMLP("facade-oort", 16, []int{8}, 10, rng), nil
	}
	cfg := mach.EngineConfig{
		Steps: 12, CloudInterval: 4, LocalEpochs: 2, BatchSize: 4,
		LearningRate: 0.05, Participation: 0.5, Seed: 9,
	}
	engine, err := mach.NewEngine(cfg, arch, devices, test, schedule, oort)
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
