package mach_test

import (
	"fmt"
	"math/rand"

	"github.com/mach-fl/mach"
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
		return mach.NewMLP("example", 16, []int{8}, 10, rng), nil
	}
	engine, _ := mach.NewEngine(mach.EngineConfig{
		Steps: 20, CloudInterval: 5, LocalEpochs: 2, BatchSize: 4,
		LearningRate: 0.05, Participation: 0.5, Seed: 4,
	}, arch, devices, test, schedule, strategy)

	result, _ := engine.Run()
	fmt.Println(result.StepsRun, "steps,", result.History.Len(), "evaluations")
	// Output: 20 steps, 4 evaluations
}

// ExampleDefaultMACHConfig shows the transfer function S(·) of Eq. (17):
// bounded near 1 so early noisy estimates cannot starve any device.
func ExampleDefaultMACHConfig() {
	cfg := mach.DefaultMACHConfig()
	fmt.Printf("S(0)=%.2f S(1)=%.2f S(5)=%.2f\n",
		cfg.Transfer(0), cfg.Transfer(1), cfg.Transfer(5))
	// Output: S(0)=1.00 S(1)=1.72 S(5)=1.95
}

// ExampleEdgeSamplingInto shows MACH's edge sampling (Eqs. 16-18): the
// transfer function flattens the Eq. (16) proportions to G² so the lightest
// devices keep a fair share of the capacity.
func ExampleEdgeSamplingInto() {
	q := mach.EdgeSamplingInto(mach.DefaultMACHConfig(), 2, []float64{1, 1, 4, 9}, nil)
	fmt.Printf("%.3f\n", q)
	// Output: [0.409 0.409 0.531 0.651]
}

// ExampleOptimalProbabilities shows the exact minimizer of Σ G²/q under
// Σ q = K: q ∝ G, not the G² that Eq. (13) states.
func ExampleOptimalProbabilities() {
	q := mach.OptimalProbabilities(2, []float64{1, 1, 4, 9})
	fmt.Printf("%.3f\n", q)
	// Output: [0.286 0.286 0.571 0.857]
}

// ExampleVarianceTerm compares the sampling term of Theorem 1 on one edge
// under uniform sampling and under its exact minimizer, at the same
// capacity.
func ExampleVarianceTerm() {
	sq := []float64{1, 1, 4, 9}
	uniform := mach.VarianceTerm(sq, []float64{0.5, 0.5, 0.5, 0.5})
	optimal := mach.VarianceTerm(sq, mach.OptimalProbabilities(2, sq))
	fmt.Printf("uniform %.2f, optimal %.2f\n", uniform, optimal)
	// Output: uniform 30.00, optimal 24.50
}

// ExampleTheorem1Bound evaluates the convergence bound of Eq. (9): the
// sampling strategy enters it only through the per-step variance terms, so
// a smaller Σ G²/q tightens it.
func ExampleTheorem1Bound() {
	params := mach.BoundParams{
		InitialGap: 2, L: 1, Gamma: 0.01,
		LocalEpochs: 10, CloudInterval: 5, Devices: 4,
	}
	uniform, _ := mach.Theorem1Bound(params, []float64{30, 30, 30, 30})
	optimal, _ := mach.Theorem1Bound(params, []float64{24.5, 24.5, 24.5, 24.5})
	fmt.Printf("uniform %.4f, optimal %.4f\n", uniform, optimal)
	// Output: uniform 10.9750, optimal 10.7963
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
