package mach_test

import (
	"fmt"
	"math/rand"

	mach "github.com/mach-fl/mach"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
)

// Example shows the smallest end-to-end training run: synthetic non-IID
// devices, waypoint mobility, MACH sampling, hierarchical training.
func Example() {
	task, _ := mach.NewTask(mach.MNISTLike(4, 4))
	devices, _ := mach.Partition(task, mach.PartitionConfig{
		Devices: 8, SamplesPerDevice: 30, TailRatio: 0.4, Seed: 1,
	})
	test, _ := task.Generate(rand.New(rand.NewSource(2)), 200, nil)
	schedule, _ := mach.GenerateSchedule(3, 2, 8, 20, 3)
	strategy, _ := mach.NewMACH(8, mach.DefaultMACHConfig())

	arch := func(rng *rand.Rand) (*mach.Network, error) {
		return nn.NewMLP("example", 16, []int{8}, 10, rng), nil
	}
	engine, _ := mach.NewEngine(mach.EngineConfig{
		Steps: 20, CloudInterval: 5, LocalEpochs: 2, BatchSize: 4,
		LearningRate: 0.05, LRDecay: 1, Participation: 0.5, Seed: 4,
	}, arch, devices, test, schedule, strategy)

	result, _ := engine.Run()
	fmt.Println(result.StepsRun, "steps,", result.History.Len(), "evaluations")
	// Output: 20 steps, 4 evaluations
}

// ExampleMACHConfig_Transfer shows the transfer function S(·) of Eq. (17):
// bounded near 1 so early noisy estimates cannot starve any device.
func ExampleMACHConfig_Transfer() {
	cfg := mach.DefaultMACHConfig()
	fmt.Printf("S(0)=%.2f S(1)=%.2f S(5)=%.2f\n",
		cfg.Transfer(0), cfg.Transfer(1), cfg.Transfer(5))
	// Output: S(0)=1.00 S(1)=1.72 S(5)=1.95
}

// ExampleNewUniform shows that any Strategy plugs into the same engine.
func ExampleNewUniform() {
	var s mach.Strategy = mach.NewUniform()
	q := s.ProbabilitiesInto(&sampling.EdgeContext{
		Capacity: 2,
		Members:  []int{4, 7, 9, 11},
		RNG:      rand.New(rand.NewSource(1)),
	}, nil)
	fmt.Println(q)
	// Output: [0.5 0.5 0.5 0.5]
}

// ExampleGenerateSchedule shows the mobility schedule every experiment is
// built on: B^t, the edge each device touches at each step.
func ExampleGenerateSchedule() {
	schedule, _ := mach.GenerateSchedule(7, 3, 10, 25, 3)
	fmt.Println("edges:", schedule.Edges, "devices:", schedule.Devices, "steps:", schedule.Steps)
	fmt.Println("partition valid:", schedule.Validate() == nil)
	// Output:
	// edges: 3 devices: 10 steps: 25
	// partition valid: true
}
