package main

import (
	"fmt"
	"math/rand"

	"github.com/mach-fl/mach/internal/bench"
	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/fed"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/telemetry"
)

// workload is one named input shape of the benchmark. cfg carries the
// topology, model and hyperparameters in the experiment harness's own
// vocabulary (so the paper cell is bench.TaskPreset, not a re-spelling of
// it); the remaining fields are what bench.Config cannot express.
type workload struct {
	name string
	cfg  bench.Config
	// shards is hfl.Config.Shards for in-process workloads.
	shards int
	// stayProb > 0 selects a streaming mobility.MarkovSource with that stay
	// probability; 0 the preset's dense waypoint schedule.
	stayProb float64
	// hosts > 0 runs the workload over a loopback fed cluster with that many
	// device hosts instead of in-process.
	hosts int
	// target is the frozen accuracy steps_to_target is read against, floor
	// the accuracy below which the run counts as incorrect. Both are
	// calibrated in README.md.
	target, floor float64
}

// workloads returns the four benchmark workloads. small shrinks every one to
// a smoke size (few steps, ≤ 200 devices) for bench_test.go; the shapes keep
// their distinguishing features (model family, lane, shards, transport).
func workloads(small bool) []workload {
	paper := bench.TaskPreset(bench.TaskMNIST, bench.ScaleFull)
	paper.Steps = 10

	f32 := paper
	f32.Lane = "f32"
	f32.FuseBatch = true
	f32.Steps = 16

	fleet := bench.TaskPreset(bench.TaskMNIST, bench.ScaleFull)
	fleet.Model = "mlp"
	fleet.ImageSize = 8
	fleet.Devices = 20000
	fleet.Edges = 200
	fleet.SamplesPerDevice = 16
	fleet.LocalEpochs = 1
	fleet.Participation = 0.02
	fleet.EvalEvery = 50
	fleet.Steps = 200

	loop := bench.TaskPreset(bench.TaskMNIST, bench.ScaleFull)
	loop.Model = "mlp"
	loop.Steps = 30

	ws := []workload{
		{name: "paper_cnn", cfg: paper, target: 0.05, floor: 0.05},
		{name: "paper_cnn_f32", cfg: f32, target: 0.05, floor: 0.05},
		{name: "fleet_stream", cfg: fleet, shards: 2, stayProb: 0.9, target: 0.50, floor: 0.50},
		{name: "fed_loopback", cfg: loop, hosts: 2, target: 0.45, floor: 0.45},
	}
	if small {
		for i := range ws {
			c := &ws[i].cfg
			if c.Devices > 200 {
				c.Devices, c.Participation = 200, 0.1
			} else {
				c.Devices = 20
			}
			c.Edges = 4
			c.Steps = c.CloudInterval + 1 // one cloud round, then the closing evaluation
			c.EvalEvery = 0
			c.LocalEpochs = 1
			c.SamplesPerDevice = 16
			c.TestSamples = 40
			ws[i].target, ws[i].floor = 0, 0
		}
	}
	return ws
}

// workloadByName finds a workload of the full-size set.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads(false) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is the generated world of one run: everything the program under
// test receives. It is a pure function of (workload, seed).
type inputs struct {
	parts []*dataset.Dataset
	test  *dataset.Dataset
	src   mobility.StepSource
}

// buildInputs generates the device partition, the test set and the mobility
// source from the seed, recording each phase as a child span of parent.
func (w *workload) buildInputs(seed int64, rec *recorder, parent int) (*inputs, error) {
	c := w.cfg
	sp := rec.start("setup.partition", parent)
	task, err := dataset.NewTask(dataset.MNISTLike(c.ImageSize, c.ImageSize))
	if err != nil {
		return nil, fmt.Errorf("build task: %w", err)
	}
	parts, err := dataset.Partition(task, dataset.PartitionConfig{
		Devices:             c.Devices,
		SamplesPerDevice:    c.SamplesPerDevice,
		TailRatio:           c.TailRatio,
		GlobalTailRatio:     c.GlobalTailRatio,
		NoisyDeviceFraction: c.NoisyDevices,
		NoisyLabelFraction:  c.NoisyLabels,
		Seed:                seed,
	})
	if err != nil {
		return nil, fmt.Errorf("partition devices: %w", err)
	}
	rec.end(sp)

	sp = rec.start("setup.testset", parent)
	test, err := task.Generate(rand.New(rand.NewSource(seed+1)), c.TestSamples, nil)
	if err != nil {
		return nil, fmt.Errorf("build test set: %w", err)
	}
	rec.end(sp)

	sp = rec.start("setup.mobility", parent)
	var src mobility.StepSource
	if w.stayProb > 0 {
		src, err = mobility.NewMarkovSource(seed+2, c.Edges, c.Devices, c.Steps, w.stayProb)
	} else {
		src, err = mobility.GenerateScheduleWaypoint(seed+2, c.Edges, c.Devices, c.Steps, c.StationsPerEdge, mobility.DefaultWaypoint())
	}
	if err != nil {
		return nil, fmt.Errorf("build mobility source: %w", err)
	}
	rec.end(sp)
	return &inputs{parts: parts, test: test, src: src}, nil
}

// engineConfig is the hfl configuration of an in-process workload.
func (w *workload) engineConfig(seed int64) hfl.Config {
	c := w.cfg
	c.Seed = seed
	hc := c.HFLConfig(0) // engine seed = seed + 3
	hc.Shards = w.shards
	return hc
}

// cluster is a loopback fed deployment wired from the public fed API.
type cluster struct {
	cloud *fed.Cloud
	hosts []*fed.DeviceServer
	edges []*fed.EdgeServer
}

// close tears the cluster down, reporting the first failure.
func (d *cluster) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if d.cloud != nil {
		keep(d.cloud.Close())
	}
	for _, e := range d.edges {
		keep(e.Close())
	}
	for _, s := range d.hosts {
		keep(s.Close())
	}
	return first
}

// buildCluster brings up w.hosts device hosts over contiguous device ranges,
// one edge server per edge and the cloud, all on 127.0.0.1:0 under the delta
// codec. Every seed derives from the workload seed. tel (nil = off) is attached
// to every component before it starts serving.
func (w *workload) buildCluster(seed int64, in *inputs, tel *telemetry.Telemetry) (*cluster, error) {
	c := w.cfg
	d := &cluster{}
	fail := func(err error) (*cluster, error) {
		if cerr := d.close(); cerr != nil {
			return nil, fmt.Errorf("%w (teardown: %v)", err, cerr)
		}
		return nil, err
	}
	table := map[int]string{}
	var hostAddrs []string
	for h := 0; h < w.hosts; h++ {
		data := map[int]*dataset.Dataset{}
		for m := h * c.Devices / w.hosts; m < (h+1)*c.Devices/w.hosts; m++ {
			data[m] = in.parts[m]
		}
		srv, err := fed.NewDeviceServer(c.Arch(), data, c.MACH, seed+int64(100+h))
		if err != nil {
			return fail(err)
		}
		srv.SetTelemetry(tel)
		d.hosts = append(d.hosts, srv)
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		hostAddrs = append(hostAddrs, addr)
		for m := h * c.Devices / w.hosts; m < (h+1)*c.Devices/w.hosts; m++ {
			table[m] = addr
		}
	}
	hyper := fed.Hyper{LocalEpochs: c.LocalEpochs, BatchSize: c.BatchSize, LearningRate: c.LearningRate}
	var edgeAddrs []string
	for n := 0; n < c.Edges; n++ {
		e, err := fed.NewEdgeServer(n, c.MACH, hyper, seed+11, fed.StaticResolver(table), nil)
		if err != nil {
			return fail(err)
		}
		e.SetTelemetry(tel)
		d.edges = append(d.edges, e)
		addr, err := e.Serve("127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		edgeAddrs = append(edgeAddrs, addr)
	}
	cloud, err := fed.NewCloud(fed.CloudConfig{
		Steps:         c.Steps,
		CloudInterval: c.CloudInterval,
		Participation: c.Participation,
		EvalEvery:     c.EvalEvery,
		Seed:          seed + 3,
		Codec:         codec.SchemeDelta,
	}, c.Arch(), in.src, in.test, edgeAddrs, hostAddrs)
	if err != nil {
		return fail(err)
	}
	cloud.SetTelemetry(tel)
	d.cloud = cloud
	return d, nil
}
