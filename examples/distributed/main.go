// Distributed example: the same HFL algorithm as the simulator, but run as a
// real deployment — two device-host servers, three edge servers and a cloud
// coordinator, all speaking net/rpc over loopback TCP. Device-side experience
// buffers live on the device hosts, so a device's G̃² estimate follows it
// when mobility moves it between edges.
//
//	go run ./examples/distributed
//
// (cmd/machnode runs the identical roles as separate OS processes.)
package main

import (
	"fmt"
	"math/rand"
	"os"

	"github.com/mach-fl/mach/internal/bench"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/fed"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distributed:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := bench.TaskPreset(bench.TaskMNIST, bench.ScaleCI)
	cfg.Devices = 18
	cfg.Edges = 3
	cfg.Steps = 60
	env, err := cfg.BuildEnvironment(0)
	if err != nil {
		return err
	}

	// Device hosts: two processes' worth of logical devices.
	const numHosts = 2
	table := map[int]string{}
	var hostAddrs []string
	for h := 0; h < numHosts; h++ {
		data := map[int]*dataset.Dataset{}
		for m := h * cfg.Devices / numHosts; m < (h+1)*cfg.Devices/numHosts; m++ {
			data[m] = env.DeviceData[m]
		}
		srv, err := fed.NewDeviceServer(cfg.Arch(), data, cfg.MACH, cfg.Seed)
		if err != nil {
			return err
		}
		defer srv.Close() //machlint:allow errdrop best-effort teardown of a demo at process exit
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			return err
		}
		hostAddrs = append(hostAddrs, addr)
		for m := range data {
			table[m] = addr
		}
		fmt.Printf("device host %d: %d devices on %s\n", h, len(data), addr)
	}

	// Edge servers.
	hyper := fed.Hyper{
		LocalEpochs:  cfg.LocalEpochs,
		BatchSize:    cfg.BatchSize,
		LearningRate: cfg.LearningRate,
	}
	base, err := cfg.Arch()(rand.New(rand.NewSource(cfg.Seed))) // its length bounds every global an edge accepts
	if err != nil {
		return err
	}
	var edgeAddrs []string
	for n := 0; n < cfg.Edges; n++ {
		e, err := fed.NewEdgeServer(n, cfg.MACH, hyper, cfg.Seed, fed.StaticResolver(table), base.ParamVector())
		if err != nil {
			return err
		}
		defer e.Close() //machlint:allow errdrop best-effort teardown of a demo at process exit
		addr, err := e.Serve("127.0.0.1:0")
		if err != nil {
			return err
		}
		edgeAddrs = append(edgeAddrs, addr)
		fmt.Printf("edge %d: serving on %s\n", n, addr)
	}

	// Cloud coordinator drives the training over RPC.
	cloud, err := fed.NewCloud(fed.CloudConfig{
		Steps:         cfg.Steps,
		CloudInterval: cfg.CloudInterval,
		Participation: cfg.Participation,
		EvalEvery:     10,
		Seed:          cfg.Seed,
	}, cfg.Arch(), env.Schedule, env.Test, edgeAddrs, hostAddrs)
	if err != nil {
		return err
	}
	defer cloud.Close() //machlint:allow errdrop best-effort teardown of a demo at process exit

	fmt.Printf("cloud: training %d steps over %d edges, %d devices…\n",
		cfg.Steps, cfg.Edges, cfg.Devices)
	hist, err := cloud.Run()
	if err != nil {
		return err
	}
	for _, p := range hist.Points {
		fmt.Printf("  step %3d  accuracy %.3f  loss %.3f\n", p.Step, p.Accuracy, p.Loss)
	}
	fmt.Printf("final accuracy %.3f — same algorithm as the simulator, over real RPC\n",
		hist.FinalAccuracy())
	return nil
}
