// Mobility example: the full telecom-trace pipeline the paper uses with the
// Shanghai Telecom dataset — generate timestamped base-station access
// records, round-trip them through the CSV interchange format, cluster
// stations into main edges, derive the B^t schedule, and compare how a
// device-side experience strategy (MACH) and an edge-side one (statistical
// sampling) cope with devices that keep moving.
//
//	go run ./examples/mobility
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"

	"github.com/mach-fl/mach"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mobility:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		stations = 30
		devices  = 30
		edges    = 5
		steps    = 120
	)
	rng := rand.New(rand.NewSource(3))

	// Telecom-style deployment: stations clustered around urban cores.
	placed, err := mach.PlaceStations(rng, stations, mach.DefaultPlacement())
	if err != nil {
		return err
	}

	// Fast-moving devices stress cross-edge mobility.
	wcfg := mach.DefaultWaypoint()
	wcfg.SpeedMin, wcfg.SpeedMax = 2, 8
	trace, err := mach.GenerateWaypointTrace(rng, placed, devices, steps, wcfg)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d access records for %d devices over %d stations\n",
		len(trace.Records), trace.Devices(), trace.Stations())

	// Round-trip through the CSV interchange format (what cmd/tracegen
	// writes and cmd/machsim reads).
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf); err != nil {
		return err
	}
	parsed, err := mach.ReadCSV(&buf)
	if err != nil {
		return err
	}

	// Cluster neighbouring stations into main edges, as the paper does for
	// sparse base stations, and derive the schedule.
	edgeOf, err := mach.ClusterStations(rng, placed, edges)
	if err != nil {
		return err
	}
	schedule, err := mach.BuildSchedule(parsed, edgeOf, edges, devices, steps, 1)
	if err != nil {
		return err
	}
	fmt.Printf("schedule: %.1f%% of device-steps change edge; mean devices per edge: ",
		100*schedule.TransitionRate())
	for _, o := range schedule.EdgeOccupancy() {
		fmt.Printf("%.1f ", o)
	}
	fmt.Println()

	// Same task, same schedule — only the sampling strategy differs.
	cfg := mach.TaskPreset(mach.TaskMNIST, mach.ScaleCI)
	cfg.Devices = devices
	cfg.Edges = edges
	cfg.Steps = steps
	env, err := cfg.BuildEnvironment(0)
	if err != nil {
		return err
	}
	env.Schedule = schedule

	for _, name := range []string{mach.StratStatistical, mach.StratMACH} {
		strat, err := cfg.NewStrategy(name)
		if err != nil {
			return err
		}
		eng, err := mach.NewEngine(cfg.HFLConfig(0), cfg.Arch(), env.DeviceData, env.Test, env.Schedule, strat)
		if err != nil {
			return err
		}
		res, err := eng.Run()
		if err != nil {
			return err
		}
		where := "edge-side (forgets movers)"
		if name == mach.StratMACH {
			where = "device-side (travels with the device)"
		}
		fmt.Printf("%-12s experience %-38s final accuracy %.3f\n",
			name, where, res.History.FinalAccuracy())
	}

	// The same estimates, inspected directly: a MACH book retains a moved
	// device's experience; a per-edge statistical table does not.
	strat, err := mach.NewMACH(devices, mach.DefaultMACHConfig())
	if err != nil {
		return err
	}
	strat.ObserveBatch(0, []int{0}, []int{7}, [][]float64{{4, 4, 4}}) // device 7 trains at edge 0
	strat.CloudRound(1)
	var estimate [1]float64
	strat.Book().UCBEstimatesInto(estimate[:], []int{7}, 10)
	fmt.Printf("\nMACH estimate for device 7 after it moves to edge 3: %.2f (experience retained)\n",
		estimate[0])
	return nil
}
