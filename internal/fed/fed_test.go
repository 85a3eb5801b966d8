package fed

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
)

func testArch(rng *rand.Rand) (*nn.Network, error) {
	return nn.NewMLP("fed-test", 16, []int{8}, 10, rng), nil
}

// deployment spins up a full in-process cluster on loopback TCP: `hosts`
// device hosts splitting the device population, `edges` edge servers, and a
// cloud driving the run under the given wire format.
type deployment struct {
	cloud   *Cloud
	devices []*DeviceServer
	edges   []*EdgeServer
}

func (d *deployment) close() {
	if d.cloud != nil {
		d.cloud.Close()
	}
	for _, e := range d.edges {
		e.Close()
	}
	for _, s := range d.devices {
		s.Close()
	}
}

// runSeed is the one seed every role of a test deployment receives, as
// cmd/machnode passes its -seed flag to every node.
const runSeed = 6

// testHyper is the local-update setting of every test deployment.
var testHyper = Hyper{LocalEpochs: 2, BatchSize: 4, LearningRate: 0.05}

// world is a deployment's input: per-device data, the test set, the schedule
// and, optionally, the address each device host listens on (default
// 127.0.0.1:0, an ephemeral port).
type world struct {
	parts  []*dataset.Dataset
	test   *dataset.Dataset
	sched  *mobility.Schedule
	listen []string
}

func buildWorld(t *testing.T, devices, edges, steps int) world {
	t.Helper()
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.Partition(task, dataset.PartitionConfig{
		Devices: devices, SamplesPerDevice: 40, TailRatio: 0.4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	test, err := task.Generate(rand.New(rand.NewSource(2)), 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := mobility.GenerateSchedule(3, edges, devices, steps, 3)
	if err != nil {
		t.Fatal(err)
	}
	return world{parts: parts, test: test, sched: sched}
}

func deploy(t *testing.T, devices, edges, steps, hosts int, scheme codec.Scheme) *deployment {
	t.Helper()
	return deployWorld(t, buildWorld(t, devices, edges, steps), hosts, CloudConfig{
		Steps: steps, CloudInterval: 5, Participation: 0.5, EvalEvery: 5, Seed: runSeed,
		Codec: scheme,
	})
}

// deployWorld serves w from `hosts` device hosts splitting the population
// into contiguous ranges, one edge server per scheduled edge and a cloud.
// With wrap, each host is served through the server wrap makes of it.
func deployWorld(t *testing.T, w world, hosts int, cfg CloudConfig, wrap ...func(*DeviceServer) server) *deployment {
	t.Helper()
	d := &deployment{}
	machCfg := sampling.DefaultMACHConfig()
	devices := len(w.parts)

	table := map[int]string{}
	var hostAddrs []string
	for h := 0; h < hosts; h++ {
		data := map[int]*dataset.Dataset{}
		for m := h * devices / hosts; m < (h+1)*devices/hosts; m++ {
			data[m] = w.parts[m]
		}
		srv, err := NewDeviceServer(testArch, data, machCfg, runSeed)
		if err != nil {
			t.Fatal(err)
		}
		addr := "127.0.0.1:0"
		if w.listen != nil {
			addr = w.listen[h]
		}
		if len(wrap) != 0 {
			addr = serveRPC(t, wrap[0](srv))
		} else if addr, err = srv.Serve(addr); err != nil {
			t.Fatal(err)
		}
		d.devices = append(d.devices, srv)
		hostAddrs = append(hostAddrs, addr)
		for m := range data {
			table[m] = addr
		}
	}

	base, err := testArch(rand.New(rand.NewSource(runSeed)))
	if err != nil {
		t.Fatal(err)
	}
	var edgeAddrs []string
	for n := 0; n < w.sched.Edges; n++ {
		e, err := NewEdgeServer(n, machCfg, testHyper, runSeed, StaticResolver(table), base.ParamVector())
		if err != nil {
			t.Fatal(err)
		}
		addr, err := e.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d.edges = append(d.edges, e)
		edgeAddrs = append(edgeAddrs, addr)
	}

	cloud, err := NewCloud(cfg, testArch, w.sched, w.test, edgeAddrs, hostAddrs)
	if err != nil {
		t.Fatal(err)
	}
	d.cloud = cloud
	return d
}

func TestDistributedTrainingLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("full 30-step deployment is not short")
	}
	d := deploy(t, 8, 2, 30, 2, codec.SchemeDelta)
	defer d.close()
	hist, err := d.cloud.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() == 0 {
		t.Fatal("no evaluations")
	}
	if hist.FinalAccuracy() < 0.3 {
		t.Fatalf("distributed run failed to learn: final accuracy %.3f", hist.FinalAccuracy())
	}
	if len(d.cloud.GlobalParams()) == 0 {
		t.Fatal("empty global model")
	}
}

func TestDeviceServerRPCs(t *testing.T) {
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	data, err := task.Generate(rand.New(rand.NewSource(1)), 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDeviceServer(testArch, map[int]*dataset.Dataset{3: data}, sampling.DefaultMACHConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := dialClient(t, addr)

	var ping PingReply
	if err := client.call("Device.Ping", &PingArgs{}, &ping); err != nil {
		t.Fatal(err)
	}
	if ping.Role != "device-host" {
		t.Fatalf("role %q", ping.Role)
	}

	// Estimate before any training: pure exploration score.
	var est EstimateReply
	if err := client.call("Device.Estimate", &EstimateArgs{Step: 10, Devices: []int{3}}, &est); err != nil {
		t.Fatal(err)
	}
	if len(est.Estimates) != 1 || est.Estimates[0] <= 0 {
		t.Fatalf("estimates %v", est.Estimates)
	}
	explore := est.Estimates[0]
	// Unknown devices error: one past the end of the host's table (it holds
	// IDs 0..3), far past it, a negative ID, and an unhosted ID inside it.
	for _, id := range []int{4, 99, -1, 0} {
		if err := client.call("Device.Estimate", &EstimateArgs{Step: 10, Devices: []int{3, id}}, &est); err == nil || !strings.Contains(err.Error(), "not hosted here") {
			t.Fatalf("Estimate of device %d: %v, want not hosted here", id, err)
		}
	}

	// Train round-trip: TrainMany installs the base it carries and returns
	// the update sum, and the experience changes the estimate after a cloud
	// round.
	rng := rand.New(rand.NewSource(2))
	base, err := testArch(rng)
	if err != nil {
		t.Fatal(err)
	}
	params := base.ParamVector()
	blob, err := codec.Encode(codec.SchemeRaw, params, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tr TrainManyReply
	args := TrainManyArgs{
		Step: 0, Edge: 0, Devices: []int{3}, Weights: []float64{1}, BaseID: 1, Base: blob, HasBase: true, Scheme: codec.SchemeRaw,
		Hyper: Hyper{LocalEpochs: 3, BatchSize: 4, LearningRate: 0.1},
	}
	if err := client.call("Device.TrainMany", &args, &tr); err != nil {
		t.Fatal(err)
	}
	sum, err := codec.Decode(tr.Sum, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != len(params) {
		t.Fatal("parameter length changed")
	}
	changed := false
	for _, v := range sum {
		if v != 0 {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("training did not change the model")
	}
	var cr CloudRoundReply
	if err := client.call("Device.CloudRound", &CloudRoundArgs{Step: 1}, &cr); err != nil {
		t.Fatal(err)
	}
	if err := client.call("Device.Estimate", &EstimateArgs{Step: 10, Devices: []int{3}}, &est); err != nil {
		t.Fatal(err)
	}
	if est.Estimates[0] == explore {
		t.Fatalf("estimate %v unchanged by a trained window and a cloud round", explore)
	}

	// Bad hyperparameters are rejected.
	bad := args
	bad.Hyper.BatchSize = 0
	if err := client.call("Device.TrainMany", &bad, &tr); err == nil {
		t.Fatal("expected error for invalid hyperparameters")
	}
}

func TestEdgeServerValidation(t *testing.T) {
	if _, err := NewEdgeServer(0, sampling.DefaultMACHConfig(), Hyper{}, 1, nil, nil); err == nil {
		t.Fatal("expected error for nil resolver")
	}
	bad := sampling.DefaultMACHConfig()
	bad.Alpha = 5
	if _, err := NewEdgeServer(0, bad, Hyper{}, 1, StaticResolver(nil), nil); err == nil {
		t.Fatal("expected error for invalid MACH config")
	}
	res := StaticResolver(map[int]string{1: "addr"})
	if _, err := res(2); err == nil {
		t.Fatal("expected resolver miss")
	}
}

func TestCloudConfigValidation(t *testing.T) {
	valid := CloudConfig{Steps: 10, CloudInterval: 5, Participation: 0.5}
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*CloudConfig)
	}{
		{"zero steps", func(c *CloudConfig) { c.Steps = 0 }},
		{"zero interval", func(c *CloudConfig) { c.CloudInterval = 0 }},
		{"participation", func(c *CloudConfig) { c.Participation = 0 }},
		{"negative eval", func(c *CloudConfig) { c.EvalEvery = -1 }},
		{"bad codec", func(c *CloudConfig) { c.Codec = codec.Scheme(99) }},
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

func TestNewDeviceServerValidation(t *testing.T) {
	if _, err := NewDeviceServer(testArch, nil, sampling.DefaultMACHConfig(), 1); err == nil {
		t.Fatal("expected error for empty device map")
	}
	empty := dataset.NewDataset("empty", 1, 4, 4, 10)
	if _, err := NewDeviceServer(testArch, map[int]*dataset.Dataset{0: empty}, sampling.DefaultMACHConfig(), 1); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestEdgeStepFailsOnDeadDeviceHost(t *testing.T) {
	base, err := testArch(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Resolver points at a port nothing listens on.
	e, err := NewEdgeServer(0, sampling.DefaultMACHConfig(),
		Hyper{LocalEpochs: 1, BatchSize: 2, LearningRate: 0.1}, 1,
		StaticResolver(map[int]string{0: "127.0.0.1:1"}), base.ParamVector())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var rep EdgeStepReply
	if err := e.step(&EdgeStepArgs{Step: 0, Members: []int{0}, Capacity: 1}, &rep); err == nil {
		t.Fatal("expected dial error for dead device host")
	}
}

// TestCloseUnblocksCallToHungHost: a host that accepts connections and never
// replies holds an edge's step in its first call; Close makes the step
// return an error that names the host.
func TestCloseUnblocksCallToHungHost(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()
	addr := ln.Addr().String()
	base, err := testArch(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEdgeServer(0, sampling.DefaultMACHConfig(), testHyper, 1, StaticResolver(map[int]string{0: addr}), base.ParamVector())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		var rep EdgeStepReply
		done <- e.step(&EdgeStepArgs{Members: []int{0}, Capacity: 1}, &rep)
	}()
	var conn net.Conn
	select {
	case conn = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the edge never dialed the host")
	}
	defer conn.Close()
	// The request has arrived once its first byte can be read: the step is
	// waiting for the reply.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != nil {
		t.Fatalf("the edge's request never arrived: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), addr) {
			t.Fatalf("step after Close: err = %v, want an error naming %s", err, addr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("step still blocked 2 s after Close")
	}
}

func TestTrainRejectsWrongParameterLength(t *testing.T) {
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	data, err := task.Generate(rand.New(rand.NewSource(1)), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDeviceServer(testArch, map[int]*dataset.Dataset{0: data}, sampling.DefaultMACHConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := dialClient(t, addr)
	// A base of the wrong length is refused when it is installed, so no
	// TrainMany can ever train from it.
	blob, err := codec.Encode(codec.SchemeRaw, []float64{1, 2, 3}, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	args := TrainManyArgs{
		Edge: 0, Devices: []int{0}, Weights: []float64{1}, BaseID: 1, Base: blob, HasBase: true,
		Hyper: Hyper{LocalEpochs: 1, BatchSize: 2, LearningRate: 0.1},
	}
	if err := client.call("Device.TrainMany", &args, &TrainManyReply{}); err == nil || !strings.Contains(err.Error(), "3 params") {
		t.Fatalf("TrainMany carrying a 3-parameter base: err = %v, want a parameter-length error", err)
	}
	args.Base, args.HasBase = codec.Blob{}, false
	err = client.call("Device.TrainMany", &args, &TrainManyReply{})
	if !isUnknownBaseline(err) {
		t.Fatalf("TrainMany from a refused base: err = %v, want unknown baseline", err)
	}
}

func TestEdgeStepEmptyMembersKeepsModel(t *testing.T) {
	base, err := testArch(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	params := base.ParamVector()
	e, err := NewEdgeServer(0, sampling.DefaultMACHConfig(),
		Hyper{LocalEpochs: 1, BatchSize: 2, LearningRate: 0.1}, 1,
		StaticResolver(nil), params)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// The model only travels when asked for, as a blob of the step's scheme.
	for step, scheme := range []codec.Scheme{codec.SchemeRaw, codec.SchemeDelta} {
		var rep EdgeStepReply
		if err := e.step(&EdgeStepArgs{Step: 2 * step, Members: nil, Capacity: 2, Scheme: scheme}, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Sampled != 0 || rep.HasModel {
			t.Fatalf("%v: empty edge step sampled %d, shipped a model nobody asked for: %v", scheme, rep.Sampled, rep.HasModel)
		}
		rep = EdgeStepReply{}
		if err := e.step(&EdgeStepArgs{Step: 2*step + 1, Members: nil, Capacity: 2, Scheme: scheme, WantModel: true}, &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.HasModel || rep.Model.Scheme != scheme {
			t.Fatalf("%v: edge step did not return the requested model", scheme)
		}
		got, err := codec.Decode(rep.Model, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, scheme.String()+" edge model", got, params)
	}
}

// TestConcurrentEdgeStepsSerialize: overlapping Step calls on one edge — a
// retrying or hostile cloud — run one after the other. Each call installs a
// global and trains on two hosts, so every one reads and writes the edge's
// per-host install table; unserialized, -race reports the overlap and a
// concurrent map write can kill the edge process.
func TestConcurrentEdgeStepsSerialize(t *testing.T) {
	const devices, callers, rounds = 8, 4, 3
	w := buildWorld(t, devices, 1, 1)
	d := deployWorld(t, w, 2, CloudConfig{Steps: 1, CloudInterval: 1, Participation: 1, Seed: runSeed})
	defer d.close()
	proto, err := testArch(rand.New(rand.NewSource(runSeed)))
	if err != nil {
		t.Fatal(err)
	}
	global, err := codec.Encode(codec.SchemeDelta, proto.ParamVector(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	members := []int{0, 1, 2, 3, 4, 5, 6, 7}
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds && errs[g] == nil; r++ {
				var rep EdgeStepReply
				errs[g] = d.edges[0].step(&EdgeStepArgs{
					Step: r*callers + g, Members: members, Capacity: devices,
					Model: global, ModelID: uint64(g + 1), HasModel: true,
				}, &rep)
				if errs[g] == nil && rep.Sampled == 0 {
					errs[g] = fmt.Errorf("step %d sampled no device", r*callers+g)
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", g, err)
		}
	}
}

func TestNewCloudValidation(t *testing.T) {
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	test, err := task.Generate(rand.New(rand.NewSource(1)), 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := mobility.GenerateSchedule(2, 2, 4, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CloudConfig{Steps: 10, CloudInterval: 5, Participation: 0.5, Seed: 1}

	if _, err := NewCloud(cfg, testArch, nil, test, []string{"a", "b"}, nil); err == nil {
		t.Fatal("expected nil-schedule error")
	}
	if _, err := NewCloud(cfg, testArch, sched, test, []string{"only-one"}, nil); err == nil {
		t.Fatal("expected edge-count mismatch error")
	}
	long := cfg
	long.Steps = 99
	if _, err := NewCloud(long, testArch, sched, test, []string{"a", "b"}, nil); err == nil {
		t.Fatal("expected short-schedule error")
	}
	if _, err := NewCloud(cfg, testArch, sched, nil, []string{"a", "b"}, nil); err == nil {
		t.Fatal("expected empty-test error")
	}
	// Valid inputs but unreachable edge addresses: dial must fail.
	if _, err := NewCloud(cfg, testArch, sched, test, []string{"127.0.0.1:1", "127.0.0.1:1"}, nil); err == nil {
		t.Fatal("expected dial error")
	}
}

// TestNewCloudClosesDialedOnFailure: when a later dial fails, NewCloud
// closes the connections it already opened; the accepted one sees EOF.
func TestNewCloudClosesDialedOnFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()
	w := buildWorld(t, 4, 2, 1)
	cfg := CloudConfig{Steps: 1, CloudInterval: 1, Participation: 0.5, Seed: runSeed}
	if _, err := NewCloud(cfg, testArch, w.sched, w.test, []string{ln.Addr().String(), "127.0.0.1:1"}, nil); err == nil {
		t.Fatal("expected dial error")
	}
	var conn net.Conn
	select {
	case conn = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the first edge was never dialed")
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("dialed connection after the failed NewCloud: read %v, want EOF", err)
	}
}

// TestCloudRoundRejectsEdgeWithoutModel: an edge that answers a cloud
// round's Step without its model fails the step, naming the edge, instead of
// the reduce skipping it (one edge: a global of zeros).
func TestCloudRoundRejectsEdgeWithoutModel(t *testing.T) {
	w := buildWorld(t, 4, 1, 1)
	cloud, err := NewCloud(CloudConfig{Steps: 1, CloudInterval: 1, Participation: 0.5, Seed: runSeed},
		testArch, w.sched, w.test, []string{serveHostile(t, &hostileHost{noModel: true})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	if _, err := cloud.Run(); err == nil || !strings.Contains(err.Error(), "edge 0") {
		t.Fatalf("edge reply without a model at a cloud round: err = %v, want an error naming edge 0", err)
	}
}

// TestCloudEvaluatesWithEngineEvaluator: every point the cloud reports is
// hfl's evaluator on the global the run held at that step, bit for bit. The
// global at an evaluation step s is the final global of the same run cut at
// s steps.
func TestCloudEvaluatesWithEngineEvaluator(t *testing.T) {
	w := buildWorld(t, 8, 2, 10)
	run := func(steps int) (*metrics.History, []float64) {
		d := deployWorld(t, w, 2, CloudConfig{Steps: steps, CloudInterval: 5, Participation: 0.5, EvalEvery: 5, Seed: runSeed})
		defer d.close()
		hist, err := d.cloud.Run()
		if err != nil {
			t.Fatal(err)
		}
		return hist, d.cloud.GlobalParams()
	}
	hist, _ := run(w.sched.Steps)
	if hist.Len() < 2 {
		t.Fatalf("%d evaluations, want at least 2", hist.Len())
	}
	for _, p := range hist.Points {
		_, global := run(p.Step)
		// A one-step hfl.Cloud whose initial model is global evaluates it.
		arch := func(rng *rand.Rand) (*nn.Network, error) {
			net, err := testArch(rng)
			if err == nil {
				err = net.SetParamVector(global)
			}
			return net, err
		}
		core, err := hfl.NewCloud(hfl.Config{Steps: 1, CloudInterval: 1}, arch, w.sched, w.test)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.BeginStep(0); err != nil {
			t.Fatal(err)
		}
		want, evaluated, err := core.EndStep(0)
		if err != nil || !evaluated {
			t.Fatalf("hfl evaluation: %v (evaluated %v)", err, evaluated)
		}
		if math.Float64bits(p.Accuracy) != math.Float64bits(want.Accuracy) || math.Float64bits(p.Loss) != math.Float64bits(want.Loss) {
			t.Fatalf("step %d: cloud reported (acc %v, loss %v), hfl's evaluator (acc %v, loss %v)",
				p.Step, p.Accuracy, p.Loss, want.Accuracy, want.Loss)
		}
	}
}

// runDeployment spins up a cluster, runs it to completion and returns the
// evaluation history, the final global model and the measured comm stats.
func runDeployment(t *testing.T, hosts int, scheme codec.Scheme, steps int) (*metrics.History, []float64, hfl.CommStats) {
	t.Helper()
	d := deploy(t, 8, 2, steps, hosts, scheme)
	defer d.close()
	hist, err := d.cloud.Run()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := d.cloud.CommStats()
	if err != nil {
		t.Fatal(err)
	}
	return hist, d.cloud.GlobalParams(), stats
}

// TestDeltaCodecBitIdenticalAndCheaperThanRaw is the codec contract end to
// end: the lossless delta wire format must reproduce the raw format's
// learning trajectory bit for bit — same evaluation history, same final
// global parameters — while moving strictly fewer measured wire bytes. The
// single-host case exercises the host-side base advance (no model bytes on
// the wire between cloud rounds); the two-host case the update-sum path.
func TestDeltaCodecBitIdenticalAndCheaperThanRaw(t *testing.T) {
	for _, hosts := range []int{1, 2} {
		t.Run(fmt.Sprintf("hosts=%d", hosts), func(t *testing.T) {
			const steps = 10
			histRaw, globalRaw, commRaw := runDeployment(t, hosts, codec.SchemeRaw, steps)
			histDelta, globalDelta, commDelta := runDeployment(t, hosts, codec.SchemeDelta, steps)

			if histRaw.Len() == 0 || histRaw.Len() != histDelta.Len() {
				t.Fatalf("history lengths: raw %d, delta %d", histRaw.Len(), histDelta.Len())
			}
			for i := range histRaw.Points {
				pr, pd := histRaw.Points[i], histDelta.Points[i]
				if pr.Step != pd.Step ||
					math.Float64bits(pr.Accuracy) != math.Float64bits(pd.Accuracy) ||
					math.Float64bits(pr.Loss) != math.Float64bits(pd.Loss) {
					t.Fatalf("evaluation %d diverged: raw %+v, delta %+v", i, pr, pd)
				}
			}
			if len(globalRaw) != len(globalDelta) {
				t.Fatalf("global lengths: raw %d, delta %d", len(globalRaw), len(globalDelta))
			}
			for j := range globalRaw {
				if math.Float64bits(globalRaw[j]) != math.Float64bits(globalDelta[j]) {
					t.Fatalf("global parameter %d diverged: raw %v, delta %v", j, globalRaw[j], globalDelta[j])
				}
			}

			for _, c := range []hfl.CommStats{commRaw, commDelta} {
				if !c.Measured {
					t.Fatalf("comm stats not marked measured: %+v", c)
				}
				if c.DeviceUplinkBytes <= 0 || c.DeviceDownlinkBytes <= 0 || c.CloudBytes <= 0 {
					t.Fatalf("comm counters empty: %+v", c)
				}
			}
			rawDev := commRaw.DeviceUplinkBytes + commRaw.DeviceDownlinkBytes
			deltaDev := commDelta.DeviceUplinkBytes + commDelta.DeviceDownlinkBytes
			if deltaDev >= rawDev {
				t.Fatalf("delta device traffic %d B not below raw %d B", deltaDev, rawDev)
			}
			if commDelta.Total() >= commRaw.Total() {
				t.Fatalf("delta total %d B not below raw total %d B", commDelta.Total(), commRaw.Total())
			}
			t.Logf("hosts=%d: device bytes raw=%d delta=%d (%.1fx), total raw=%d delta=%d (%.1fx)",
				hosts, rawDev, deltaDev, float64(rawDev)/float64(deltaDev),
				commRaw.Total(), commDelta.Total(), float64(commRaw.Total())/float64(commDelta.Total()))
		})
	}
}

// TestLossySchemesStillLearn bounds the accuracy degradation of the lossy
// wire formats: a full run under float32 casting and int8 range quantization
// (with error feedback) must still clear the same accuracy bar as the
// lossless run in TestDistributedTrainingLearns.
func TestLossySchemesStillLearn(t *testing.T) {
	if testing.Short() {
		t.Skip("full 30-step deployments are not short")
	}
	for _, scheme := range []codec.Scheme{codec.SchemeFloat32, codec.SchemeInt8} {
		t.Run(scheme.String(), func(t *testing.T) {
			d := deploy(t, 8, 2, 30, 2, scheme)
			defer d.close()
			hist, err := d.cloud.Run()
			if err != nil {
				t.Fatal(err)
			}
			if hist.FinalAccuracy() < 0.3 {
				t.Fatalf("%v run degraded too far: final accuracy %.3f", scheme, hist.FinalAccuracy())
			}
		})
	}
}

// TestTrainManyUnknownBaselineOverRPC checks the baseline-cache handshake
// where it matters: across fed's frames, which carry errors as strings. A
// TrainMany naming a base
// the host never saw must come back recognizable to isUnknownBaseline, and
// succeed when resent with that base attached. An edge whose host lost its
// cache makes that resend itself, and counts it as one download.
func TestTrainManyUnknownBaselineOverRPC(t *testing.T) {
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	data, err := task.Generate(rand.New(rand.NewSource(1)), 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := testArch(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	params := base.ParamVector()
	blob, err := codec.Encode(codec.SchemeDelta, params, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("framed", func(t *testing.T) {
		srv, err := NewDeviceServer(testArch, map[int]*dataset.Dataset{0: data}, sampling.DefaultMACHConfig(), 9)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		client := dialClient(t, addr)

		args := &TrainManyArgs{
			Edge: 0, Devices: []int{0}, Weights: []float64{1}, BaseID: 77, Scheme: codec.SchemeDelta,
			Hyper: Hyper{LocalEpochs: 1, BatchSize: 4, LearningRate: 0.05},
		}
		var rep TrainManyReply
		err = client.call("Device.TrainMany", args, &rep)
		if err == nil {
			t.Fatal("expected unknown-baseline error")
		}
		if !isUnknownBaseline(err) {
			t.Fatalf("error %v not recognized as unknown baseline across RPC", err)
		}

		args.Base, args.HasBase = blob, true
		rep = TrainManyReply{}
		if err := client.call("Device.TrainMany", args, &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.HasSum {
			t.Fatal("TrainMany returned no update sum")
		}
		sum, err := codec.Decode(rep.Sum, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(sum) != len(params) {
			t.Fatalf("update sum has %d params, want %d", len(sum), len(params))
		}
	})

	t.Run("edge", func(t *testing.T) {
		const devices = 4
		d := deployWorld(t, buildWorld(t, devices, 1, 1), 1, CloudConfig{Steps: 1, CloudInterval: 1, Participation: 1, Seed: runSeed})
		defer d.close()
		e, host := d.edges[0], d.devices[0]
		members := []int{0, 1, 2, 3}
		downloads := func() int64 {
			var rep CommReply
			if err := e.comm(&CommArgs{}, &rep); err != nil {
				t.Fatal(err)
			}
			return rep.Downloads
		}
		// Step 0 trains on the one host, which advances the base in place;
		// step 1 samples no one and asks for the model, so the edge fetches
		// the advanced base back and knows the host caches it. Then the host
		// forgets it, as a restart would.
		for _, args := range []EdgeStepArgs{
			{Step: 0, Members: members, Capacity: devices, Model: blob, ModelID: 1, HasModel: true},
			{Step: 1, WantModel: true},
		} {
			var rep EdgeStepReply
			if err := e.step(&args, &rep); err != nil {
				t.Fatal(err)
			}
			if args.Step == 0 && rep.Sampled == 0 {
				t.Fatal("step 0 sampled no device")
			}
		}
		host.mu.Lock()
		clear(host.edges)
		host.mu.Unlock()
		before := downloads()
		var rep EdgeStepReply
		if err := e.step(&EdgeStepArgs{Step: 2, Members: members, Capacity: devices, WantModel: true}, &rep); err != nil {
			t.Fatalf("step after the host lost its base: %v", err)
		}
		if rep.Sampled == 0 {
			t.Fatal("step 2 sampled no device")
		}
		if got := downloads() - before; got != 1 {
			t.Fatalf("the resend counted %d downloads, want 1", got)
		}
	})
}

// TestSpanStitchingAcrossRPC verifies that the span context carried in RPC
// args stitches the three tiers' span rings into one tree without any shared
// sink: each server records into its own Telemetry, yet a handler span's
// Parent equals the client span ID the caller derived on its side of the
// wire, because both ends compute the same pure hash of (kind, step, edge,
// device).
func TestSpanStitchingAcrossRPC(t *testing.T) {
	d := deploy(t, 6, 2, 6, 1, codec.SchemeDelta)
	defer d.close()

	telCloud := telemetry.New()
	telCloud.EnableSpans(true)
	d.cloud.SetTelemetry(telCloud)
	telEdge := telemetry.New()
	telEdge.EnableSpans(true)
	d.edges[0].SetTelemetry(telEdge)
	telDev := telemetry.New()
	telDev.EnableSpans(true)
	d.devices[0].SetTelemetry(telDev)

	if _, err := d.cloud.Run(); err != nil {
		t.Fatal(err)
	}

	byKind := func(spans []telemetry.SpanSnapshot, kind string) []telemetry.SpanSnapshot {
		var out []telemetry.SpanSnapshot
		for _, s := range spans {
			if s.Kind == kind {
				out = append(out, s)
			}
		}
		return out
	}

	// Cloud side: every client rpc_edge_step span hangs off its step's root
	// span and has the derived ID the edge will use as its parent.
	edgeSteps := byKind(telCloud.Spans(), "rpc_edge_step")
	if len(edgeSteps) == 0 {
		t.Fatal("cloud recorded no rpc_edge_step spans")
	}
	for _, s := range edgeSteps {
		if want := uint64(telemetry.DeriveSpanID(telemetry.SpanStep, s.Step, -1, -1)); s.Parent != want {
			t.Fatalf("rpc_edge_step step %d edge %d: parent %#x, want step span %#x", s.Step, s.Edge, s.Parent, want)
		}
		if want := uint64(telemetry.DeriveSpanID(telemetry.SpanRPCEdgeStep, s.Step, s.Edge, -1)); s.ID != want {
			t.Fatalf("rpc_edge_step step %d edge %d: id %#x, want derived %#x", s.Step, s.Edge, s.ID, want)
		}
	}

	// Edge side: the handler span's parent is the cloud's client span ID —
	// carried across the wire in EdgeStepArgs.Span, never shared in memory.
	handles := byKind(telEdge.Spans(), "handle_edge_step")
	if len(handles) == 0 {
		t.Fatal("edge recorded no handle_edge_step spans")
	}
	for _, s := range handles {
		if want := uint64(telemetry.DeriveSpanID(telemetry.SpanRPCEdgeStep, s.Step, 0, -1)); s.Parent != want {
			t.Fatalf("handle_edge_step step %d: parent %#x, want cloud rpc span %#x", s.Step, s.Parent, want)
		}
	}

	// Device side: TrainMany handlers nest under the edge's per-host client
	// span (host index 0 — the deployment has a single device host).
	trains := byKind(telDev.Spans(), "handle_train_many")
	if len(trains) == 0 {
		t.Fatal("device host recorded no handle_train_many spans")
	}
	for _, s := range trains {
		if want := uint64(telemetry.DeriveSpanID(telemetry.SpanRPCTrainMany, s.Step, s.Edge, 0)); s.Parent != want {
			t.Fatalf("handle_train_many step %d edge %d: parent %#x, want edge rpc span %#x", s.Step, s.Edge, s.Parent, want)
		}
	}
}

// TestSharedSinkCountsEachEventOnce: a cluster whose cloud, edges and hosts
// share one sink, as the benchmark's traced fed_loopback run attaches it,
// records each event at one site. The hosts count the devices they train,
// the cloud observes the step latency, and rpc_calls counts handler
// invocations, so it equals the handler spans.
func TestSharedSinkCountsEachEventOnce(t *testing.T) {
	const steps = 6
	d := deploy(t, 12, 2, steps, 2, codec.SchemeDelta)
	defer d.close()
	tel := telemetry.New()
	tel.EnableSpans(true)
	d.cloud.SetTelemetry(tel)
	for _, e := range d.edges {
		e.SetTelemetry(tel)
	}
	for _, s := range d.devices {
		s.SetTelemetry(tel)
	}
	if _, err := d.cloud.Run(); err != nil {
		t.Fatal(err)
	}
	// Before CommStats, whose Edge.Comm calls have no handler span.
	snap := tel.Snapshot()

	sampled := snap.Histograms["edge_sampled"].Sum
	if sampled == 0 {
		t.Fatal("no device was sampled: the comparison would be vacuous")
	}
	if got := snap.Counters["devices_trained"]; got != sampled {
		t.Errorf("devices_trained = %d, edge_sampled sums to %d", got, sampled)
	}
	if got := snap.Histograms["step_ns"].Count; got != steps {
		t.Errorf("step_ns count = %d over %d steps", got, steps)
	}
	var handled int64
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "span_handle_") {
			handled += h.Count
		}
	}
	if got := snap.Counters["rpc_calls"]; got != handled {
		t.Errorf("rpc_calls = %d, the handle_* spans count %d", got, handled)
	}
}

// hostileHost is a device host that answers every model-bearing RPC with a
// blob of its choosing.
type hostileHost struct {
	blob     codec.Blob
	noBase   bool    // TrainMany fails when it carries a base
	noModel  bool    // Step replies without a model
	estimate float64 // Estimate's answer for every device (0 = 1)
	sizes    []int   // Estimate's dataset sizes (nil = 1 per device)
}

func (h *hostileHost) ping(_ *PingArgs, reply *PingReply) error {
	reply.Role = "hostile"
	return nil
}

// serve answers Estimate with h.estimate and h.sizes, TrainMany and GetBase
// with the hostile blob, and Step as an edge server whose model reply is that blob,
// or no model at all.
func (h *hostileHost) serve(_ *msgs, method []byte, body *wirer) (wireMsg, error) {
	switch string(method) {
	case "Device.Estimate":
		return handle(body, &EstimateArgs{}, &EstimateReply{}, func(args *EstimateArgs, reply *EstimateReply) error {
			reply.Estimates, reply.Sizes = make([]float64, len(args.Devices)), h.sizes
			for i := range reply.Estimates {
				reply.Estimates[i] = cmp.Or(h.estimate, 1)
				if h.sizes == nil {
					reply.Sizes = append(reply.Sizes, 1)
				}
			}
			return nil
		})
	case "Device.TrainMany":
		return handle(body, &TrainManyArgs{}, &TrainManyReply{}, func(args *TrainManyArgs, reply *TrainManyReply) error {
			if h.noBase && args.HasBase {
				return fmt.Errorf("no room for a base")
			}
			reply.Sum, reply.HasSum = h.blob, args.NextID == 0
			return nil
		})
	case "Device.GetBase":
		return handle(body, &GetBaseArgs{}, &GetBaseReply{Model: h.blob}, func(*GetBaseArgs, *GetBaseReply) error { return nil })
	case "Edge.Step":
		return handle(body, &EdgeStepArgs{}, &EdgeStepReply{Model: h.blob, HasModel: !h.noModel}, func(*EdgeStepArgs, *EdgeStepReply) error { return nil })
	}
	return nil, fmt.Errorf("the hostile host serves no method %q", method)
}

// serveHostile starts a hostile device host on loopback; it answers as an
// edge server too.
func serveHostile(t *testing.T, h *hostileHost) string {
	t.Helper()
	return serveRPC(t, h)
}

// serveRPC serves srv on loopback until the test ends and returns the
// address.
func serveRPC(t *testing.T, srv server) string {
	t.Helper()
	ln, err := listen(srv, "Device", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// dialClient opens a fed client to addr, closed when the test ends.
func dialClient(t *testing.T, addr string) *client {
	t.Helper()
	c, err := dialCounting(addr, new(atomic.Int64), new(atomic.Int64))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.close() })
	return c
}

// TestForeignParameterCountRejectedBeforeDecode: a blob whose Count is not
// the receiver's parameter count is refused at every fed call site before the
// codec sees it. The probe is a well-formed 16-byte all-const payload claiming
// 2^40 parameters — decoding it would try to allocate 8 TiB.
func TestForeignParameterCountRejectedBeforeDecode(t *testing.T) {
	huge := codec.Blob{Scheme: codec.SchemeDelta, Count: 1 << 40, Data: make([]byte, 16)}

	d := deploy(t, 4, 2, 5, 1, codec.SchemeDelta)
	defer d.close()
	if err := d.devices[0].trainMany(&TrainManyArgs{Devices: []int{0}, Weights: []float64{1}, BaseID: 1, Base: huge, HasBase: true, Hyper: testHyper}, &TrainManyReply{}); err == nil {
		t.Fatal("device host accepted a base of foreign size")
	}
	if _, err := d.cloud.decodeEdgeModel(nil, huge); err == nil {
		t.Fatal("cloud accepted an edge model of foreign size")
	}
	// The deployment builds its edges as cmd/machnode and examples/distributed
	// do, from the arch's initial ParamVector, and this is the edge's first
	// step: that initial model's length is the only count it can check the
	// cloud's first global against.
	var rep EdgeStepReply
	if err := d.edges[0].step(&EdgeStepArgs{HasModel: true, Model: huge, ModelID: 1}, &rep); err == nil ||
		!strings.Contains(err.Error(), "global of") {
		t.Fatalf("first global of foreign size: err = %v, want a parameter-count error", err)
	}

	// An edge facing hostile hosts: their update sums when the sample spans
	// two, the base fetched back after a host-side advance when it sits on
	// one.
	addrs := []string{serveHostile(t, &hostileHost{blob: huge}), serveHostile(t, &hostileHost{blob: huge})}
	base, err := testArch(rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		hosts map[int]string
		want  string
	}{
		{map[int]string{0: addrs[0], 1: addrs[1]}, "summed"},
		{map[int]string{0: addrs[0], 1: addrs[0]}, "returned a base of"},
	} {
		e, err := NewEdgeServer(0, sampling.DefaultMACHConfig(), Hyper{LocalEpochs: 1, BatchSize: 2, LearningRate: 0.1}, 1,
			StaticResolver(c.hosts), base.ParamVector())
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.step(&EdgeStepArgs{Members: []int{0, 1}, Capacity: 2, WantModel: true}, &rep); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("hostile hosts %v: err = %v, want a parameter-count error (%q)", c.hosts, err, c.want)
		}
	}

	// A cloud facing a hostile edge whose raw model reply is one parameter
	// too long: an error, not an index out of range in the aggregation.
	tooLong, err := codec.Encode(codec.SchemeRaw, make([]float64, len(d.cloud.GlobalParams())+1), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := buildWorld(t, 4, 1, 1)
	cloud, err := NewCloud(CloudConfig{Steps: 1, CloudInterval: 1, Participation: 0.5, Seed: runSeed, Codec: codec.SchemeRaw},
		testArch, w.sched, w.test, []string{serveHostile(t, &hostileHost{blob: tooLong})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	if _, err := cloud.Run(); err == nil || !strings.Contains(err.Error(), "edge model of") {
		t.Fatalf("hostile raw edge reply: err = %v, want a parameter-count error", err)
	}
}

// TestEdgeStepRejectsNaNProbability: +Inf estimates drive Algorithm 3 to
// q = NaN, and the step fails naming the edge, device and q instead of
// silently sampling nobody. Dataset sizes come from the wire too: a reply
// whose sizes do not align with the devices asked, hold a size below 1, or
// sum past an int fails the step naming the host, before any weight divides
// by them.
func TestEdgeStepRejectsNaNProbability(t *testing.T) {
	base, err := testArch(rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		host *hostileHost
		want string // the error; %s is the host's address
	}{
		{&hostileHost{estimate: math.Inf(1)}, "fed: edge 0: device 0 sampling probability NaN, outside [0, 1]"},
		{&hostileHost{sizes: []int{1}}, "fed: edge 0: host %s returned 2 estimates and 1 sizes for 2 devices"},
		{&hostileHost{sizes: []int{1, 0}}, "fed: edge 0: host %s returned dataset size 0 after a total of 1"},
		{&hostileHost{sizes: []int{math.MaxInt, 1}}, fmt.Sprintf("fed: edge 0: host %%s returned dataset size 1 after a total of %d", math.MaxInt)},
	} {
		addr := serveHostile(t, c.host)
		e, err := NewEdgeServer(0, sampling.DefaultMACHConfig(), Hyper{LocalEpochs: 1, BatchSize: 2, LearningRate: 0.1}, 1,
			StaticResolver(map[int]string{0: addr, 1: addr}), base.ParamVector())
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var rep EdgeStepReply
		err = e.step(&EdgeStepArgs{Members: []int{0, 1}, Capacity: 1}, &rep)
		want := c.want
		if strings.Contains(want, "%s") {
			want = fmt.Sprintf(want, addr)
		}
		if err == nil || err.Error() != want {
			t.Errorf("hostile estimates: err = %v (sampled %d), want %q", err, rep.Sampled, want)
		}
	}
}

// TestBaseFanOutReportsFirstHostInAddressOrder: the concurrent TrainMany
// calls that carry the base surface the failure of the first host in
// sorted-address order, whichever RPC happens to fail first.
func TestBaseFanOutReportsFirstHostInAddressOrder(t *testing.T) {
	addrs := []string{
		serveHostile(t, &hostileHost{noBase: true}),
		serveHostile(t, &hostileHost{noBase: true}),
	}
	base, err := testArch(rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEdgeServer(0, sampling.DefaultMACHConfig(), Hyper{LocalEpochs: 1, BatchSize: 2, LearningRate: 0.1}, 1,
		StaticResolver(map[int]string{0: addrs[0], 1: addrs[1]}), base.ParamVector())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sort.Strings(addrs)
	for i := 0; i < 5; i++ {
		var rep EdgeStepReply
		err := e.step(&EdgeStepArgs{Step: i, Members: []int{0, 1}, Capacity: 2}, &rep)
		if err == nil || !strings.Contains(err.Error(), "training via "+addrs[0]+": no room for a base") {
			t.Fatalf("step %d: err = %v, want the base install failure of %s", i, err, addrs[0])
		}
	}
}

func requireSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestThreeHostGlobalsIgnorePorts: which host listens on which port moves no
// bit. One seed's world is served twice by three device hosts on the same
// three loopback ports, handed out in two permutations, so the hosts' address
// order differs between the runs; edges add the hosts' update sums in the
// order of their first members, so the histories and final globals agree.
func TestThreeHostGlobalsIgnorePorts(t *testing.T) {
	const steps = 10
	// Three distinct free ports: each listener stays open until all three
	// are bound, then all close for the hosts to listen on.
	var ports []string
	var reserved []net.Listener
	for range 3 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		reserved = append(reserved, ln)
		ports = append(ports, ln.Addr().String())
	}
	for _, ln := range reserved {
		ln.Close()
	}
	sort.Strings(ports)
	run := func(perm ...int) (*metrics.History, []float64) {
		w := buildWorld(t, 12, 2, steps)
		for _, p := range perm {
			w.listen = append(w.listen, ports[p])
		}
		d := deployWorld(t, w, len(perm), CloudConfig{
			Steps: steps, CloudInterval: 5, Participation: 0.8, EvalEvery: 5, Seed: runSeed,
			Codec: codec.SchemeDelta,
		})
		defer d.close()
		hist, err := d.cloud.Run()
		if err != nil {
			t.Fatal(err)
		}
		return hist, d.cloud.GlobalParams()
	}
	histA, globalA := run(0, 1, 2)
	histB, globalB := run(2, 0, 1)
	if histA.Len() == 0 || histA.Len() != histB.Len() {
		t.Fatalf("history lengths %d and %d", histA.Len(), histB.Len())
	}
	for i, a := range histA.Points {
		b := histB.Points[i]
		if a.Step != b.Step || math.Float64bits(a.Accuracy) != math.Float64bits(b.Accuracy) ||
			math.Float64bits(a.Loss) != math.Float64bits(b.Loss) {
			t.Fatalf("evaluation %d: %+v with the ports in order, %+v permuted", i, a, b)
		}
	}
	requireSameBits(t, "permuted ports' final global", globalB, globalA)
}

// TestEdgeStepMatchesTrainerOracle: edge steps over one or two device hosts
// are, bit for bit, the engine's AggPlain fold computed here with
// hfl.Trainer, each sampled device at weight w_m = |D_m|/Σ|D| over the
// sample (the sizes differ), under both lossless schemes. One host folds the next model
// Σ w_m·θ_m from zero and installs it in place under a fresh ID, leaving the
// edge stale until something needs the bits; two hosts each sum
// Σ w_m·(θ_m − base) in sampled order, and the edge adds the sums onto the
// base in the order of the hosts' first members. Step 0 keeps the model on
// the edge side (WantModel false); step 1 samples no one and asks for the
// model, so a one-host edge refetches the advanced base; step 2 trains from
// that base and asks for the model again.
func TestEdgeStepMatchesTrainerOracle(t *testing.T) {
	const devices = 8
	w := unequalSizes(t, buildWorld(t, devices, 1, 1))
	proto, err := testArch(rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	base := proto.ParamVector()
	members := make([]int, devices)
	for m := range members {
		members[m] = m
	}
	steps := []struct {
		members   []int
		wantModel bool
	}{{members, false}, {nil, true}, {members, true}}
	for _, hosts := range []int{1, 2} {
		for _, scheme := range []codec.Scheme{codec.SchemeRaw, codec.SchemeDelta} {
			t.Run(fmt.Sprintf("hosts=%d/%v", hosts, scheme), func(t *testing.T) {
				// Host h serves a contiguous device range, so creation order
				// is the order of the hosts' first members.
				table := map[int]string{}
				srvs := make([]*DeviceServer, hosts)
				for h := range srvs {
					data := map[int]*dataset.Dataset{}
					for m := h * devices / hosts; m < (h+1)*devices/hosts; m++ {
						data[m] = w.parts[m]
					}
					srv, err := NewDeviceServer(testArch, data, sampling.DefaultMACHConfig(), runSeed)
					if err != nil {
						t.Fatal(err)
					}
					addr, err := srv.Serve("127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					defer srv.Close()
					srvs[h] = srv
					for m := range data {
						table[m] = addr
					}
				}
				e, err := NewEdgeServer(0, sampling.DefaultMACHConfig(), testHyper, runSeed, StaticResolver(table), base)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				global, err := codec.Encode(scheme, base, nil, 0, nil)
				if err != nil {
					t.Fatal(err)
				}

				// The oracle trains the devices whose participation count the
				// hosts' books raised, each at its (run, step, device) key.
				tr := hfl.NewTrainerPool(proto, w.test).Borrow(testHyper.BatchSize)
				sqNorms := make([]float64, testHyper.LocalEpochs)
				participations := map[int]int{}
				want := append([]float64(nil), base...)
				for step, s := range steps {
					args := EdgeStepArgs{Step: step, Members: s.members, Capacity: 4, Scheme: scheme, WantModel: s.wantModel}
					if step == 0 {
						args.Model, args.ModelID, args.HasModel = global, 1, true
					}
					var rep EdgeStepReply
					if err := e.step(&args, &rep); err != nil {
						t.Fatal(err)
					}
					if stale := hosts == 1 && !s.wantModel; e.stale != stale {
						t.Fatalf("step %d on %d hosts left the edge stale = %v, want %v", step, hosts, e.stale, stale)
					}

					sampled := make([][]int, hosts) // per host, in member order
					total, count := 0, 0
					for h, srv := range srvs {
						for _, m := range s.members {
							if table[m] != table[h*devices/hosts] {
								continue
							}
							if p := srv.book.Participations(m); p != participations[m] {
								participations[m] = p
								sampled[h] = append(sampled[h], m)
								total += w.parts[m].Len()
								count++
							}
						}
						if len(s.members) > 0 && len(sampled[h]) == 0 {
							t.Fatalf("step %d: host %d trained no device", step, h)
						}
					}
					if count != rep.Sampled {
						t.Fatalf("step %d: hosts trained %d devices, the edge reports %d", step, count, rep.Sampled)
					}
					if count == 0 {
						continue
					}
					next := make([]float64, len(want))
					if hosts > 1 {
						copy(next, want)
					}
					for h := range srvs {
						hostSum := make([]float64, len(want))
						for _, m := range sampled[h] {
							if err := tr.LocalUpdate(want, w.parts[m], det.DeviceBatch(runSeed, step, m), testHyper.LearningRate, sqNorms); err != nil {
								t.Fatal(err)
							}
							weight := float64(w.parts[m].Len()) / float64(total)
							for j, v := range trainedParams(tr, len(want)) {
								if hosts == 1 {
									hostSum[j] += float64(weight * v)
								} else {
									hostSum[j] += float64(weight * (v - want[j]))
								}
							}
						}
						for j, v := range hostSum {
							next[j] += v
						}
					}
					want = next
					if !s.wantModel {
						continue
					}
					var replyBase []float64
					if rep.Model.Baseline != 0 {
						replyBase = base
					}
					got, err := codec.Decode(rep.Model, replyBase)
					if err != nil {
						t.Fatal(err)
					}
					requireSameBits(t, fmt.Sprintf("step %d edge model", step), got, want)
				}
				requireSameBits(t, "final edge model", e.params, want)
			})
		}
	}
}

// trainedParams reads the parameters of tr's last LocalUpdate out, by
// folding them onto zero at weight 1.
func trainedParams(tr *hfl.Trainer, n int) []float64 {
	theta := make([]float64, n)
	tr.Fold(theta, nil, 1, -1)
	return theta
}

// TestDeviceTrainMatchesEngineTrainer: a hosted device's local update is the
// engine's — a one-device TrainMany sums exactly trained − base, where trained
// is what hfl.Trainer.LocalUpdate leaves for the same data, base model and run
// seed, whichever host serves it, and records the same gradient norms: after
// a cloud round the host's estimate is that of a book fed the trainer's.
func TestDeviceTrainMatchesEngineTrainer(t *testing.T) {
	const device = 3
	w := buildWorld(t, 8, 2, 1)
	proto, err := testArch(rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	base := proto.ParamVector()

	srv, err := NewDeviceServer(testArch, map[int]*dataset.Dataset{device: w.parts[device], 5: w.parts[5]}, sampling.DefaultMACHConfig(), runSeed)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := codec.Encode(codec.SchemeDelta, base, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := hfl.NewTrainerPool(proto, w.test).Borrow(testHyper.BatchSize)
	machCfg := sampling.DefaultMACHConfig()
	book := sampling.NewExperienceBook(device+1, machCfg.ExplorationCoef, machCfg.Discount)
	// Two updates in a row, each drawn at its step's key.
	for step := 0; step < 2; step++ {
		var rep TrainManyReply
		if err := srv.trainMany(&TrainManyArgs{Step: step, Devices: []int{device}, Weights: []float64{1}, BaseID: 1, Base: blob, HasBase: true, Hyper: testHyper}, &rep); err != nil {
			t.Fatal(err)
		}
		sum, err := codec.Decode(rep.Sum, nil)
		if err != nil {
			t.Fatal(err)
		}
		sqNorms := make([]float64, testHyper.LocalEpochs)
		if err := tr.LocalUpdate(base, w.parts[device], det.DeviceBatch(runSeed, step, device), testHyper.LearningRate, sqNorms); err != nil {
			t.Fatal(err)
		}
		update := trainedParams(tr, len(base))
		for j := range update {
			update[j] -= base[j]
		}
		requireSameBits(t, fmt.Sprintf("step %d Sum", step), sum, update)
		book.ObserveMany([]int{device}, [][]float64{sqNorms})
		book.CloudRound(step)
		if err := srv.cloudRound(&CloudRoundArgs{Step: step}, &CloudRoundReply{}); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, 1)
		book.UCBEstimatesInto(want, []int{device}, step+1)
		var est EstimateReply
		if err := srv.estimate(&EstimateArgs{Step: step + 1, Devices: []int{device}}, &est); err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, fmt.Sprintf("step %d estimate", step), est.Estimates, want)
	}
}

// TestAnyHostTrainsADeviceAlike: a device is its data. Two hosts that both
// hold device m's data — the first has already trained m at an earlier
// step, the second never has — answer the same TrainManyArgs with
// Float64bits-identical sums. This is what lets another host retrain a
// device whose host died; while each host kept a stream per device, the
// first host's answer depended on m's training history.
func TestAnyHostTrainsADeviceAlike(t *testing.T) {
	const m = 3
	w := buildWorld(t, 8, 2, 1)
	proto, err := testArch(rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := codec.Encode(codec.SchemeRaw, proto.ParamVector(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*DeviceServer, 2)
	for h := range hosts {
		data := map[int]*dataset.Dataset{m: w.parts[m], 4 + h: w.parts[4+h]}
		if hosts[h], err = NewDeviceServer(testArch, data, sampling.DefaultMACHConfig(), runSeed); err != nil {
			t.Fatal(err)
		}
	}
	args := func(step int) *TrainManyArgs {
		return &TrainManyArgs{Step: step, Devices: []int{m}, Weights: []float64{0.5}, BaseID: 1, Base: blob, HasBase: true, Scheme: codec.SchemeRaw, Hyper: testHyper}
	}
	if err := hosts[0].trainMany(args(2), &TrainManyReply{}); err != nil {
		t.Fatal(err)
	}
	sums := make([][]float64, len(hosts))
	for h, srv := range hosts {
		var rep TrainManyReply
		if err := srv.trainMany(args(5), &rep); err != nil {
			t.Fatal(err)
		}
		if sums[h], err = codec.Decode(rep.Sum, nil); err != nil {
			t.Fatal(err)
		}
	}
	requireSameBits(t, "step 5 sum", sums[0], sums[1])
}

// TestFirstStepMatchesEngine is the in-process ≡ distributed statement
// (DESIGN.md §6): from the same seed, data and schedule, a cluster whose
// devices sit on one host runs hfl.Engine under MACH and AggPlain bit for
// bit, under both lossless schemes, through steps, cloud rounds and
// evaluations alike — Float64bits-identical evaluation histories and final
// globals, and the same devices sampled on every edge. The devices' dataset
// sizes differ, so the plain weights |D_m|/Σ|D| are not 1/|sample|.
func TestFirstStepMatchesEngine(t *testing.T) {
	const devices, edges, steps = 12, 3, 12
	w := unequalSizes(t, buildWorld(t, devices, edges, steps))
	mach, err := sampling.NewMACH(devices, sampling.DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := hfl.DefaultConfig()
	cfg.Steps, cfg.CloudInterval, cfg.EvalEvery, cfg.Seed, cfg.Aggregation = steps, 4, 1, runSeed, hfl.AggPlain
	cfg.LocalEpochs, cfg.BatchSize, cfg.LearningRate = testHyper.LocalEpochs, testHyper.BatchSize, testHyper.LearningRate
	eng, err := hfl.New(cfg, testArch, w.parts, w.test, w.sched, mach)
	if err != nil {
		t.Fatal(err)
	}
	// Each device the book saw trained at the step, on its edge of that step.
	wantSampled := make([]int64, edges)
	participations := make([]int, devices)
	res, err := eng.Run(hfl.WithStepHook(func(step, _ int) {
		for m := range participations {
			if p := mach.Book().Participations(m); p != participations[m] {
				participations[m] = p
				wantSampled[w.sched.EdgeOf(step, m)]++
			}
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Len() != steps || res.TotalSampled == 0 {
		t.Fatalf("engine: %d evaluations, %d devices sampled", res.History.Len(), res.TotalSampled)
	}

	for _, scheme := range []codec.Scheme{codec.SchemeRaw, codec.SchemeDelta} {
		t.Run(scheme.String(), func(t *testing.T) {
			d := deployWorld(t, w, 1, CloudConfig{
				Steps: steps, CloudInterval: cfg.CloudInterval, Participation: cfg.Participation, EvalEvery: 1,
				Seed: runSeed, Codec: scheme,
			})
			defer d.close()
			tels := make([]*telemetry.Telemetry, edges)
			for n, e := range d.edges {
				tels[n] = telemetry.New()
				e.SetTelemetry(tels[n])
			}
			hist, err := d.cloud.Run()
			if err != nil {
				t.Fatal(err)
			}
			if hist.Len() != res.History.Len() {
				t.Fatalf("%d evaluations, the engine %d", hist.Len(), res.History.Len())
			}
			for i, p := range hist.Points {
				q := res.History.Points[i]
				if p.Step != q.Step || math.Float64bits(p.Accuracy) != math.Float64bits(q.Accuracy) ||
					math.Float64bits(p.Loss) != math.Float64bits(q.Loss) {
					t.Fatalf("evaluation %d: %+v, the engine %+v", i, p, q)
				}
			}
			requireSameBits(t, "final global", d.cloud.GlobalParams(), eng.GlobalParams())
			for n, tel := range tels {
				if got := tel.Snapshot().Histograms["edge_sampled"].Sum; got != wantSampled[n] {
					t.Fatalf("edge %d sampled %d devices, the engine %d", n, got, wantSampled[n])
				}
			}
		})
	}
}

// unequalSizes cuts device m's data to its first 40 − 8·(m mod 3) samples,
// so plain fold weights |D_m|/Σ|D| part from 1/|sample|.
func unequalSizes(t *testing.T, w world) world {
	t.Helper()
	for m, d := range w.parts {
		x, labels := d.All()
		cut := dataset.NewDataset(d.Name, d.InC, d.InH, d.InW, d.Classes)
		n := d.SampleLen()
		for i := range d.Len() - 8*(m%3) {
			if err := cut.Append(x.Data()[i*n:(i+1)*n], labels[i]); err != nil {
				t.Fatal(err)
			}
		}
		w.parts[m] = cut
	}
	return w
}

// TestTrainManyRejectsBadDeviceListBeforeTraining: a TrainMany call that
// names a device twice, or a hosted device and then one the host's table
// does not hold (unhosted, negative, one past the end), fails before
// anything is sized, trained or booked — no edge state, no trainer, no
// window — and the next valid call on that host replies exactly what the
// same call on a fresh host does.
func TestTrainManyRejectsBadDeviceListBeforeTraining(t *testing.T) {
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	data := map[int]*dataset.Dataset{}
	for m := 0; m < 2; m++ {
		if data[m], err = task.Generate(rand.New(rand.NewSource(int64(m))), 8, nil); err != nil {
			t.Fatal(err)
		}
	}
	proto, err := testArch(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := codec.Encode(codec.SchemeDelta, proto.ParamVector(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	host := func() *DeviceServer {
		srv, err := NewDeviceServer(testArch, data, sampling.DefaultMACHConfig(), runSeed)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	train := func(srv *DeviceServer, devices ...int) (TrainManyReply, error) {
		var reply TrainManyReply
		weights := make([]float64, len(devices))
		for i := range weights {
			weights[i] = 1
		}
		err := srv.trainMany(&TrainManyArgs{Edge: 0, Devices: devices, Weights: weights, BaseID: 1, Base: blob, HasBase: true, Hyper: testHyper}, &reply)
		return reply, err
	}
	want, err := train(host(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]int{"repeat": {0, 0}, "unhosted": {0, 5}, "negative": {0, -1}, "one past the end": {0, 2}, "min int": {math.MinInt}} {
		t.Run(name, func(t *testing.T) {
			srv := host()
			if _, err := train(srv, bad...); err == nil {
				t.Fatalf("TrainMany(%v) succeeded", bad)
			}
			if booked := srv.book.Participations(0) + srv.book.Participations(1); len(srv.edges) != 0 || srv.trainers.Built() != 0 || booked != 0 {
				t.Fatalf("TrainMany(%v) left %d edge states, %d trainers and %d booked windows before failing", bad, len(srv.edges), srv.trainers.Built(), booked)
			}
			got, err := train(srv, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("TrainMany(%v) trained before failing: the next call replies differently", bad)
			}
		})
	}
}

// TestTrainManyRejectsHostileHyperparameters: wire-supplied hyperparameters
// that would size a buffer past a frame — the devices' gradient-norm windows,
// the trainer's minibatch input — or a learning rate that is not a positive
// finite number, and fold weights that are not one positive finite number
// per device, fail the call before anything is sized or trained by them, and
// the host goes on serving.
func TestTrainManyRejectsHostileHyperparameters(t *testing.T) {
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	data := map[int]*dataset.Dataset{}
	for m := 0; m < 2; m++ {
		if data[m], err = task.Generate(rand.New(rand.NewSource(int64(m))), 8, nil); err != nil {
			t.Fatal(err)
		}
	}
	proto, err := testArch(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := codec.Encode(codec.SchemeDelta, proto.ParamVector(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDeviceServer(testArch, data, sampling.DefaultMACHConfig(), runSeed)
	if err != nil {
		t.Fatal(err)
	}
	train := func(h Hyper, weights ...float64) error {
		return srv.trainMany(&TrainManyArgs{Devices: []int{0, 1}, Weights: weights, BaseID: 1, Base: blob, HasBase: true, Hyper: h}, &TrainManyReply{})
	}
	for _, c := range []struct {
		name    string
		hyper   Hyper
		weights []float64
	}{
		{"epochs overflow the norm windows", Hyper{LocalEpochs: math.MaxInt/2 + 1, BatchSize: 4, LearningRate: 0.05}, []float64{1, 1}},
		{"batch overflows the input", Hyper{LocalEpochs: 1, BatchSize: 1 << 50, LearningRate: 0.05}, []float64{1, 1}},
		{"NaN learning rate", Hyper{LocalEpochs: 1, BatchSize: 4, LearningRate: math.NaN()}, []float64{1, 1}},
		{"infinite learning rate", Hyper{LocalEpochs: 1, BatchSize: 4, LearningRate: math.Inf(1)}, []float64{1, 1}},
		{"a weight short", testHyper, []float64{1}},
		{"a weight too many", testHyper, []float64{1, 1, 1}},
		{"zero weight", testHyper, []float64{0, 1}},
		{"negative weight", testHyper, []float64{1, -0.5}},
		{"NaN weight", testHyper, []float64{math.NaN(), 1}},
		{"infinite weight", testHyper, []float64{1, math.Inf(1)}},
	} {
		if err := train(c.hyper, c.weights...); err == nil {
			t.Errorf("%s: TrainMany with %+v and weights %v succeeded", c.name, c.hyper, c.weights)
		}
	}
	if err := train(testHyper, 0.5, 0.5); err != nil {
		t.Fatalf("a valid call after the refused ones: %v", err)
	}
}

// installLog is a device host that records, per edge, the TrainMany calls it
// serves: all of them, those that carry a base, and those whose carrying a
// base or not disagrees with whether the host lacked the base they name.
type installLog struct {
	*DeviceServer
	mu                     sync.Mutex
	calls, shipped, misfit map[int]int
}

// serve logs each TrainMany from a copy of the body's cursor, then serves
// the request as the host does.
func (h *installLog) serve(m *msgs, method []byte, body *wirer) (wireMsg, error) {
	var args TrainManyArgs
	if peek := *body; string(method) == "Device.TrainMany" && peek.finish(&args) == nil {
		h.log(&args)
	}
	return h.DeviceServer.serve(m, method, body)
}

func (h *installLog) log(args *TrainManyArgs) {
	he := h.edge(args.Edge)
	he.mu.Lock()
	_, err := he.lookup(args.Edge, args.BaseID)
	he.mu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls[args.Edge]++
	if args.HasBase {
		h.shipped[args.Edge]++
	}
	if args.HasBase != (err != nil) {
		h.misfit[args.Edge]++
	}
}

// TestBaseShipsOncePerHostPerID: over a multi-step run at one and two hosts,
// a TrainMany carries the base exactly when its host lacks the base ID it
// names, and each edge's Downloads counts those calls — one per (host, base
// ID) install, never one per call.
func TestBaseShipsOncePerHostPerID(t *testing.T) {
	for _, hosts := range []int{1, 2} {
		t.Run(fmt.Sprintf("hosts=%d", hosts), func(t *testing.T) {
			const edges, steps = 2, 12
			var logs []*installLog
			d := deployWorld(t, buildWorld(t, 8, edges, steps), hosts, CloudConfig{
				Steps: steps, CloudInterval: 5, Participation: 0.5, Seed: runSeed,
			}, func(srv *DeviceServer) server {
				h := &installLog{DeviceServer: srv, calls: map[int]int{}, shipped: map[int]int{}, misfit: map[int]int{}}
				logs = append(logs, h)
				return h
			})
			defer d.close()
			if _, err := d.cloud.Run(); err != nil {
				t.Fatal(err)
			}
			var calls, shipped int
			for n, e := range d.edges {
				var comm CommReply
				if err := e.comm(&CommArgs{}, &comm); err != nil {
					t.Fatal(err)
				}
				var edgeShipped int
				for _, h := range logs {
					if h.misfit[n] != 0 {
						t.Errorf("edge %d: %d of %d calls carried a base the host had or lacked one it needed", n, h.misfit[n], h.calls[n])
					}
					calls += h.calls[n]
					edgeShipped += h.shipped[n]
				}
				if comm.Downloads != int64(edgeShipped) {
					t.Errorf("edge %d counted %d downloads for %d shipped bases", n, comm.Downloads, edgeShipped)
				}
				shipped += edgeShipped
			}
			if shipped == 0 || shipped == calls {
				t.Fatalf("%d of %d calls carried a base: the check would be vacuous", shipped, calls)
			}
		})
	}
}

// TestDeviceServerModelsBoundedByCallers: a host's model replicas follow its
// concurrent callers, not its devices. 200 hosted devices cost one arch call
// at construction; after every device has trained, through four concurrent
// callers, the host has built at most four trainers.
func TestDeviceServerModelsBoundedByCallers(t *testing.T) {
	const devices, callers = 200, 4
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	data := map[int]*dataset.Dataset{}
	for m := 0; m < devices; m++ {
		if data[m], err = task.Generate(rand.New(rand.NewSource(int64(m))), 8, nil); err != nil {
			t.Fatal(err)
		}
	}
	var archCalls atomic.Int64
	arch := func(rng *rand.Rand) (*nn.Network, error) {
		archCalls.Add(1)
		return testArch(rng)
	}
	srv, err := NewDeviceServer(arch, data, sampling.DefaultMACHConfig(), runSeed)
	if err != nil {
		t.Fatal(err)
	}
	if n := archCalls.Load(); n != 1 {
		t.Fatalf("construction called arch %d times for %d devices, want 1", n, devices)
	}
	proto, err := testArch(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := codec.Encode(codec.SchemeDelta, proto.ParamVector(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each caller is an edge with its own cached base, installed by its first
	// RPC, training its devices one RPC at a time.
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := c; m < devices && errs[c] == nil; m += callers {
				errs[c] = srv.trainMany(&TrainManyArgs{Edge: c, Devices: []int{m}, Weights: []float64{1}, BaseID: 1, Base: blob, HasBase: m == c, Hyper: testHyper}, &TrainManyReply{})
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := archCalls.Load(); n != 1 {
		t.Fatalf("training called arch: %d calls", n)
	}
	if built := srv.trainers.Built(); built < 1 || built > callers {
		t.Fatalf("host built %d trainers for %d concurrent callers", built, callers)
	}
}

// TestWarmFedStepAllocations: a warm loopback step allocates nothing. Every
// connection decodes into args and replies it owns, and every handler, fold
// and encode writes into buffers its owner reuses. Two hosts serve two
// edges, driven over the wire the way the cloud drives them: edge 0's
// members sit on both hosts, so it folds two update sums each step, and
// edge 1's on one host, which advances the base in place and is asked for
// it at the period's cloud round. Every period of five steps starts with a
// global install, which ships the base to every host.
func TestWarmFedStepAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("the codec's scratch sync.Pool sheds buffers at random under the race detector")
	}
	const period, bound = 5, 0
	w := buildWorld(t, 8, 2, 1)
	d := deployWorld(t, w, 2, CloudConfig{Steps: 1, CloudInterval: 1, Participation: 1, Seed: runSeed})
	defer d.close()
	proto, err := testArch(rand.New(rand.NewSource(runSeed)))
	if err != nil {
		t.Fatal(err)
	}
	global, err := codec.Encode(codec.SchemeDelta, proto.ParamVector(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	members := [][]int{{0, 1, 4, 5}, {6, 7}}
	// Per step, each edge serves Step and calls Estimate and TrainMany once
	// per host its members sit on; edge 1 fetches its advanced base once a
	// period.
	const calls = period*(1+2+2) + period*(1+1+1) + 1
	clients := make([]*client, len(d.edges))
	for n := range clients {
		conn, err := net.Dial("tcp", d.edges[n].listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients[n] = newClient(conn)
		defer clients[n].close()
	}
	args := make([]EdgeStepArgs, len(d.edges))
	replies := make([]EdgeStepReply, len(d.edges))
	step, id := 0, uint64(0)
	runPeriod := func() {
		for s := 0; s < period; s, step = s+1, step+1 {
			if s == 0 {
				id++
			}
			for n, c := range clients {
				args[n] = EdgeStepArgs{
					Step: step, Members: members[n], Capacity: float64(len(members[n])),
					Model: global, ModelID: id, HasModel: s == 0, WantModel: s == period-1,
				}
				if err := c.send("Edge.Step", &args[n]); err != nil {
					t.Fatal(err)
				}
			}
			for n, c := range clients {
				if err := c.recv(&replies[n]); err != nil {
					t.Fatal(err)
				}
			}
			for n, rep := range replies {
				if rep.Sampled != len(members[n]) || rep.HasModel != (s == period-1) {
					t.Fatalf("step %d edge %d: sampled %d of %d, model %v", step, n, rep.Sampled, len(members[n]), rep.HasModel)
				}
			}
		}
	}
	for range 4 {
		runPeriod()
	}
	perCall := testing.AllocsPerRun(20, runPeriod) / calls
	t.Logf("%.1f allocations per RPC call", perCall)
	if perCall > bound {
		t.Fatalf("a warm step allocates %.1f objects per RPC call, want ≤ %d", perCall, bound)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, kv := range info.Settings {
		if kv.Key == "-race" {
			return kv.Value == "true"
		}
	}
	return false
}

// TestCloseStopsServingOpenConnections: closing a device host or an edge
// server stops it serving the connections it accepted before, not only new
// ones.
func TestCloseStopsServingOpenConnections(t *testing.T) {
	w := buildWorld(t, 2, 1, 1)
	host, err := NewDeviceServer(testArch, map[int]*dataset.Dataset{0: w.parts[0]}, sampling.DefaultMACHConfig(), runSeed)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := NewEdgeServer(0, sampling.DefaultMACHConfig(), testHyper, runSeed, StaticResolver(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		method string
		serve  func(string) (string, error)
		close  func() error
	}{
		{"Device.Ping", host.Serve, host.Close},
		{"Edge.Ping", edge.Serve, edge.Close},
	} {
		addr, err := s.serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		client := newClient(conn)
		defer client.close()
		var rep PingReply
		if err := client.call(s.method, &PingArgs{}, &rep); err != nil {
			t.Fatalf("%s before Close: %v", s.method, err)
		}
		if err := s.close(); err != nil {
			t.Fatal(err)
		}
		rep = PingReply{}
		if err := client.call(s.method, &PingArgs{}, &rep); err == nil {
			t.Fatalf("%s on a connection opened before Close answered %q", s.method, rep.Role)
		}
	}
}

// TestModelVectorOwnership: edges, hosts and the cloud reuse their model
// vectors, so a vector must stay intact while an ID names it, and an ID
// whose vector may be rewritten must stop resolving. One edge over two hosts
// goes through a global install with a two-host sum step, a one-host
// advance, a GetBase, a cloud round and another sum step. After each, every
// vector a live ID names — the hosts' cached bases, the edge's view of the
// global, the cloud's view of what it distributed — equals the copy taken
// when the ID was first seen, and every retired ID answers
// ErrUnknownBaseline.
func TestModelVectorOwnership(t *testing.T) {
	w := buildWorld(t, 8, 1, 1)
	d := deployWorld(t, w, 2, CloudConfig{Steps: 1, CloudInterval: 1, Participation: 1, Seed: runSeed, Codec: codec.SchemeDelta})
	defer d.close()
	e, c := d.edges[0], d.cloud
	if err := c.core.BeginStep(0); err != nil {
		t.Fatal(err)
	}
	// named is one holder's vector: the ID it answers to, the bits it held
	// when that ID was first seen, and the IDs it answered to before.
	type named struct {
		id      uint64
		bits    []float64
		retired []uint64
	}
	var hosts [2]named
	var edgeView, cloudView named
	see := func(v *named, label string, id uint64, bits []float64) {
		t.Helper()
		if id == v.id {
			requireSameBits(t, label, bits, v.bits)
			return
		}
		if v.id != 0 {
			v.retired = append(v.retired, v.id)
		}
		v.id, v.bits = id, slices.Clone(bits)
	}
	unknown := func(label string, err error) {
		t.Helper()
		if !errors.Is(err, codec.ErrUnknownBaseline) {
			t.Fatalf("%s: err = %v, want ErrUnknownBaseline", label, err)
		}
	}
	n := len(e.params)
	step := func(stage string, args EdgeStepArgs) EdgeStepReply {
		t.Helper()
		var rep EdgeStepReply
		if err := e.step(&args, &rep); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if rep.Sampled != len(args.Members) {
			t.Fatalf("%s: sampled %d of %d", stage, rep.Sampled, len(args.Members))
		}
		for i, h := range d.devices {
			he := h.edge(0)
			he.mu.Lock()
			see(&hosts[i], fmt.Sprintf("%s: host %d base %d", stage, i, he.id), he.id, he.base)
			he.mu.Unlock()
			for _, id := range hosts[i].retired {
				unknown(fmt.Sprintf("%s: host %d base %d", stage, i, id), h.getBase(&GetBaseArgs{ID: id}, &GetBaseReply{}))
			}
		}
		see(&edgeView, stage+": edge's global", e.cloudID, e.cloudView)
		for _, id := range edgeView.retired {
			stale := EdgeStepArgs{Step: args.Step, HasModel: true, Model: codec.Blob{Scheme: codec.SchemeDelta, Baseline: id, Count: n}}
			unknown(fmt.Sprintf("%s: edge global %d", stage, id), e.step(&stale, &EdgeStepReply{}))
		}
		see(&cloudView, stage+": cloud's global", c.prevID, c.prevView)
		for _, id := range cloudView.retired {
			_, err := c.decodeEdgeModel(nil, codec.Blob{Scheme: codec.SchemeDelta, Baseline: id, Count: n})
			unknown(fmt.Sprintf("%s: cloud global %d", stage, id), err)
		}
		return rep
	}

	// Hosts 0 and 1 serve devices 0–3 and 4–7.
	blob, id, err := c.encodeGlobal()
	if err != nil {
		t.Fatal(err)
	}
	global := c.core.GlobalParams()
	step("install and sum", EdgeStepArgs{Step: 0, Members: []int{0, 1, 4, 5}, Capacity: 4, Model: blob, ModelID: id, HasModel: true})
	for i := range hosts {
		requireSameBits(t, fmt.Sprintf("host %d's shipped base", i), hosts[i].bits, global)
	}
	requireSameBits(t, "edge's global", edgeView.bits, global)
	shipped := e.baseID // ships to host 0 next, which advances past it
	step("advance", EdgeStepArgs{Step: 1, Members: []int{0, 1}, Capacity: 2})
	if hosts[0].id == shipped || len(hosts[0].retired) != 1 || len(hosts[1].retired) != 0 {
		t.Fatalf("host 0 answers to %d (retired %v), host 1 retired %v", hosts[0].id, hosts[0].retired, hosts[1].retired)
	}
	hosts[0].retired = append(hosts[0].retired, shipped)
	rep := step("get base", EdgeStepArgs{Step: 2, WantModel: true})
	requireSameBits(t, "edge model after GetBase", e.params, hosts[0].bits)
	model, err := c.decodeEdgeModel(nil, rep.Model)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "cloud's decode of the edge model", model, hosts[0].bits)
	c.core.Reduce(2, [][]float64{model})
	if blob, id, err = c.encodeGlobal(); err != nil {
		t.Fatal(err)
	}
	step("cloud round", EdgeStepArgs{Step: 3, Members: []int{4, 5}, Capacity: 2, Model: blob, ModelID: id, HasModel: true})
	if len(edgeView.retired) != 1 || len(cloudView.retired) != 1 || len(hosts[1].retired) != 1 {
		t.Fatalf("retired: edge %v, cloud %v, host 1 %v", edgeView.retired, cloudView.retired, hosts[1].retired)
	}
	requireSameBits(t, "edge's new global", edgeView.bits, cloudView.bits)
	// A second fold writes the vector the first one retired.
	step("sum again", EdgeStepArgs{Step: 4, Members: []int{2, 6}, Capacity: 2})
}

// TestHostSerializesOneEdgesCalls: a host's per-edge state — the cached base,
// the update sum, the norm windows — serves every call that names the edge,
// so overlapping TrainMany and GetBase calls for one edge (a retrying or
// hostile edge) run one after the other; unserialized, -race reports them.
func TestHostSerializesOneEdgesCalls(t *testing.T) {
	const callers, rounds = 4, 3
	w := buildWorld(t, callers, 1, 1)
	data := map[int]*dataset.Dataset{}
	for m, d := range w.parts {
		data[m] = d
	}
	srv, err := NewDeviceServer(testArch, data, sampling.DefaultMACHConfig(), runSeed)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := testArch(rand.New(rand.NewSource(runSeed)))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := codec.Encode(codec.SchemeDelta, proto.ParamVector(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := uint64(0); r < rounds && errs[c] == nil; r++ {
				id, next := 2*(uint64(c)*rounds+r+1), uint64(0)
				if r%2 == 0 {
					next = id + 1
				}
				errs[c] = srv.trainMany(&TrainManyArgs{Devices: []int{c}, Weights: []float64{1}, BaseID: id, Base: blob, HasBase: true,
					Hyper: testHyper, NextID: next}, &TrainManyReply{})
				// Another caller's install may have retired the ID already.
				if err := srv.getBase(&GetBaseArgs{ID: id + 1}, &GetBaseReply{}); errs[c] == nil && err != nil && !errors.Is(err, codec.ErrUnknownBaseline) {
					errs[c] = err
				}
			}
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", c, err)
		}
	}
}
