// Quickstart: train a global model with MACH device sampling on a synthetic
// non-IID task over mobile devices, end to end, in under a minute.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"os"

	"github.com/mach-fl/mach"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		devices = 24
		edges   = 4
		steps   = 80
	)

	// 1. A synthetic 10-class image task (an MNIST stand-in) partitioned
	//    across devices with long-tailed non-IID label distributions.
	task, err := mach.NewTask(mach.MNISTLike(8, 8))
	if err != nil {
		return err
	}
	parts, err := mach.Partition(task, mach.PartitionConfig{
		Devices:          devices,
		SamplesPerDevice: 60,
		TailRatio:        0.25,
		GlobalTailRatio:  0.6,
		Seed:             7,
	})
	if err != nil {
		return err
	}
	test, err := task.Generate(rand.New(rand.NewSource(8)), 500, nil)
	if err != nil {
		return err
	}

	// 2. Mobile devices: a waypoint mobility trace over base stations,
	//    clustered into edges. The schedule is B^t — which edge each
	//    device touches at each step.
	schedule, err := mach.GenerateSchedule(9, edges, devices, steps, 4)
	if err != nil {
		return err
	}
	fmt.Printf("mobility: %d devices over %d edges, %.1f%% cross-edge transitions per step\n",
		devices, edges, 100*schedule.TransitionRate())

	// 3. The MACH sampling strategy: UCB experience updating + smoothed
	//    edge sampling, no prior knowledge of device statistics.
	strategy, err := mach.NewMACH(devices, mach.DefaultMACHConfig())
	if err != nil {
		return err
	}

	// 4. Hierarchical federated training (Algorithm 1).
	arch := func(rng *rand.Rand) (*mach.Network, error) {
		return mach.NewMLP("quickstart", 64, []int{32}, 10, rng), nil
	}
	cfg := mach.EngineConfig{
		Steps:         steps,
		CloudInterval: 5,
		LocalEpochs:   5,
		BatchSize:     8,
		LearningRate:  0.05,
		Participation: 0.5,
		EvalEvery:     4,
		Seed:          10,
		Aggregation:   mach.AggPlain,
	}
	engine, err := mach.NewEngine(cfg, arch, parts, test, schedule, strategy)
	if err != nil {
		return err
	}
	res, err := engine.Run(mach.WithEvalHook(func(step int, acc, loss float64) {
		fmt.Printf("step %3d  accuracy %.3f  loss %.3f\n", step, acc, loss)
	}))
	if err != nil {
		return err
	}

	// 5. Results.
	var xs []int
	var ys []float64
	for _, p := range res.History.Points {
		xs = append(xs, p.Step)
		ys = append(ys, p.Accuracy)
	}
	fmt.Println()
	mach.RenderCurveASCII(os.Stdout, "global model accuracy", xs, ys, 60, 10)
	fmt.Printf("\nfinal accuracy %.3f after %d steps (%d device participations)\n",
		res.History.FinalAccuracy(), res.StepsRun, res.TotalSampled)
	if step, ok := res.History.TimeToAccuracy(0.6); ok {
		fmt.Printf("reached 60%% accuracy at step %d\n", step)
	}
	return nil
}
