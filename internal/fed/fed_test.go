package fed

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/rpc"
	"reflect"
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

// world is a deployment's input: per-device data, the test set, the schedule.
type world struct {
	parts []*dataset.Dataset
	test  *dataset.Dataset
	sched *mobility.Schedule
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
	return world{parts, test, sched}
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
func deployWorld(t *testing.T, w world, hosts int, cfg CloudConfig) *deployment {
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
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
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

	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var ping PingReply
	if err := client.Call("Device.Ping", PingArgs{}, &ping); err != nil {
		t.Fatal(err)
	}
	if ping.Role != "device-host" {
		t.Fatalf("role %q", ping.Role)
	}

	// Estimate before any training: pure exploration score.
	var est EstimateReply
	if err := client.Call("Device.Estimate", EstimateArgs{Step: 10, Devices: []int{3}}, &est); err != nil {
		t.Fatal(err)
	}
	if len(est.Estimates) != 1 || est.Estimates[0] <= 0 {
		t.Fatalf("estimates %v", est.Estimates)
	}
	// Unknown device errors.
	if err := client.Call("Device.Estimate", EstimateArgs{Step: 10, Devices: []int{99}}, &est); err == nil {
		t.Fatal("expected error for unknown device")
	}

	// Train round-trip: SetBase caches a base, TrainMany returns the update
	// sum and I gradient norms, and the experience changes the estimate
	// after a cloud round.
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
	if err := client.Call("Device.SetBase", SetBaseArgs{Edge: 0, ID: 1, Model: blob}, &SetBaseReply{}); err != nil {
		t.Fatal(err)
	}
	var tr TrainManyReply
	args := TrainManyArgs{
		Step: 0, Edge: 0, Devices: []int{3}, BaseID: 1, Scheme: codec.SchemeRaw,
		Hyper: Hyper{LocalEpochs: 3, BatchSize: 4, LearningRate: 0.1},
	}
	if err := client.Call("Device.TrainMany", args, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.SqNorms) != 1 || len(tr.SqNorms[0]) != 3 {
		t.Fatalf("gradient norms %v, want one device with 3", tr.SqNorms)
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
	if err := client.Call("Device.CloudRound", CloudRoundArgs{Step: 1}, &cr); err != nil {
		t.Fatal(err)
	}

	// Bad hyperparameters are rejected.
	bad := args
	bad.Hyper.BatchSize = 0
	if err := client.Call("Device.TrainMany", bad, &tr); err == nil {
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
	if err := e.Step(EdgeStepArgs{Step: 0, Members: []int{0}, Capacity: 1}, &rep); err == nil {
		t.Fatal("expected dial error for dead device host")
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
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// A base of the wrong length is refused when it is installed, so no
	// TrainMany can ever train from it.
	blob, err := codec.Encode(codec.SchemeRaw, []float64{1, 2, 3}, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Call("Device.SetBase", SetBaseArgs{Edge: 0, ID: 1, Model: blob}, &SetBaseReply{}); err == nil {
		t.Fatal("expected parameter-length error over RPC")
	}
	err = client.Call("Device.TrainMany", TrainManyArgs{
		Edge: 0, Devices: []int{0}, BaseID: 1,
		Hyper: Hyper{LocalEpochs: 1, BatchSize: 2, LearningRate: 0.1},
	}, &TrainManyReply{})
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
		if err := e.Step(EdgeStepArgs{Step: 2 * step, Members: nil, Capacity: 2, Scheme: scheme}, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Sampled != 0 || rep.HasModel {
			t.Fatalf("%v: empty edge step sampled %d, shipped a model nobody asked for: %v", scheme, rep.Sampled, rep.HasModel)
		}
		rep = EdgeStepReply{}
		if err := e.Step(EdgeStepArgs{Step: 2*step + 1, Members: nil, Capacity: 2, Scheme: scheme, WantModel: true}, &rep); err != nil {
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
// where it matters: across net/rpc, which flattens errors to strings. A
// TrainMany naming a base the host never saw must come back recognizable to
// isUnknownBaseline, and succeed after SetBase installs that base.
func TestTrainManyUnknownBaselineOverRPC(t *testing.T) {
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	data, err := task.Generate(rand.New(rand.NewSource(1)), 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDeviceServer(testArch, map[int]*dataset.Dataset{0: data}, sampling.DefaultMACHConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	args := TrainManyArgs{
		Edge: 0, Devices: []int{0}, BaseID: 77, Scheme: codec.SchemeDelta,
		Hyper: Hyper{LocalEpochs: 1, BatchSize: 4, LearningRate: 0.05},
	}
	var rep TrainManyReply
	err = client.Call("Device.TrainMany", args, &rep)
	if err == nil {
		t.Fatal("expected unknown-baseline error")
	}
	if !isUnknownBaseline(err) {
		t.Fatalf("error %v not recognized as unknown baseline across RPC", err)
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
	var sbRep SetBaseReply
	if err := client.Call("Device.SetBase", SetBaseArgs{Edge: 0, ID: 77, Model: blob}, &sbRep); err != nil {
		t.Fatal(err)
	}
	rep = TrainManyReply{}
	if err := client.Call("Device.TrainMany", args, &rep); err != nil {
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
	if len(rep.SqNorms) != 1 || len(rep.SqNorms[0]) != 1 {
		t.Fatalf("sqNorms %v", rep.SqNorms)
	}
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

// hostileHost is a device host that answers every model-bearing RPC with a
// blob of its choosing.
type hostileHost struct {
	blob      codec.Blob
	noSetBase bool    // SetBase fails
	noModel   bool    // Step replies without a model
	estimate  float64 // Estimate's answer for every device (0 = 1)
}

func (h *hostileHost) Estimate(args EstimateArgs, reply *EstimateReply) error {
	reply.Estimates = make([]float64, len(args.Devices))
	for i := range reply.Estimates {
		reply.Estimates[i] = cmp.Or(h.estimate, 1)
	}
	return nil
}

func (h *hostileHost) SetBase(SetBaseArgs, *SetBaseReply) error {
	if h.noSetBase {
		return fmt.Errorf("no room for a base")
	}
	return nil
}

// Step answers as an edge server whose model reply is the hostile blob, or
// no model at all.
func (h *hostileHost) Step(_ EdgeStepArgs, reply *EdgeStepReply) error {
	reply.Model, reply.HasModel = h.blob, !h.noModel
	return nil
}

// serveHostile starts a hostile device host on loopback; it answers as an
// edge server too.
func serveHostile(t *testing.T, h *hostileHost) string {
	t.Helper()
	srv := rpc.NewServer()
	for _, name := range []string{"Device", "Edge"} {
		if err := srv.RegisterName(name, h); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go acceptLoop(srv, ln)
	return ln.Addr().String()
}

func (h *hostileHost) TrainMany(args TrainManyArgs, reply *TrainManyReply) error {
	reply.Sum, reply.HasSum = h.blob, !args.Advance
	return nil
}

func (h *hostileHost) GetBase(_ GetBaseArgs, reply *GetBaseReply) error {
	reply.Model = h.blob
	return nil
}

// TestForeignParameterCountRejectedBeforeDecode: a blob whose Count is not
// the receiver's parameter count is refused at every fed call site before the
// codec sees it. The probe is a well-formed 16-byte all-const payload claiming
// 2^40 parameters — decoding it would try to allocate 8 TiB.
func TestForeignParameterCountRejectedBeforeDecode(t *testing.T) {
	huge := codec.Blob{Scheme: codec.SchemeDelta, Count: 1 << 40, Data: make([]byte, 16)}

	d := deploy(t, 4, 2, 5, 1, codec.SchemeDelta)
	defer d.close()
	if err := d.devices[0].SetBase(SetBaseArgs{Edge: 0, ID: 1, Model: huge}, &SetBaseReply{}); err == nil {
		t.Fatal("device host accepted a base of foreign size")
	}
	if _, err := d.cloud.decodeEdgeModel(huge); err == nil {
		t.Fatal("cloud accepted an edge model of foreign size")
	}
	// The deployment builds its edges as cmd/machnode and examples/distributed
	// do, from the arch's initial ParamVector, and this is the edge's first
	// step: that initial model's length is the only count it can check the
	// cloud's first global against.
	var rep EdgeStepReply
	if err := d.edges[0].Step(EdgeStepArgs{HasModel: true, Model: huge, ModelID: 1}, &rep); err == nil ||
		!strings.Contains(err.Error(), "global of") {
		t.Fatalf("first global of foreign size: err = %v, want a parameter-count error", err)
	}

	// An edge facing a hostile host: the update sum, then the base fetched
	// back after a host-side advance.
	addr := serveHostile(t, &hostileHost{blob: huge})
	base, err := testArch(rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEdgeServer(0, sampling.DefaultMACHConfig(), Hyper{LocalEpochs: 1, BatchSize: 2, LearningRate: 0.1}, 1,
		StaticResolver(map[int]string{0: addr, 1: addr}), base.ParamVector())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	step := EdgeStepArgs{Members: []int{0, 1}, Capacity: 2, WantModel: true}
	if err := e.Step(step, &rep); err == nil || !strings.Contains(err.Error(), "summed") {
		t.Fatalf("hostile update sum: err = %v, want a parameter-count error", err)
	}
	step.WantModel = false // one host covers the sample: it advances the base in place
	if err := e.Step(step, &rep); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(EdgeStepArgs{Step: 1, WantModel: true}, &rep); err == nil || !strings.Contains(err.Error(), "returned a base of") {
		t.Fatalf("hostile base fetch: err = %v, want a parameter-count error", err)
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
// silently sampling nobody.
func TestEdgeStepRejectsNaNProbability(t *testing.T) {
	addr := serveHostile(t, &hostileHost{estimate: math.Inf(1)})
	base, err := testArch(rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEdgeServer(0, sampling.DefaultMACHConfig(), Hyper{LocalEpochs: 1, BatchSize: 2, LearningRate: 0.1}, 1,
		StaticResolver(map[int]string{0: addr, 1: addr}), base.ParamVector())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var rep EdgeStepReply
	err = e.Step(EdgeStepArgs{Members: []int{0, 1}, Capacity: 1}, &rep)
	if want := "fed: edge 0: device 0 sampling probability NaN, outside [0, 1]"; err == nil || err.Error() != want {
		t.Fatalf("+Inf estimates: err = %v (sampled %d), want %q", err, rep.Sampled, want)
	}
}

// TestSetBaseFanOutReportsFirstHostInAddressOrder: the concurrent base
// installs surface the failure of the first host in sorted-address order,
// whichever RPC happens to fail first.
func TestSetBaseFanOutReportsFirstHostInAddressOrder(t *testing.T) {
	addrs := []string{
		serveHostile(t, &hostileHost{noSetBase: true}),
		serveHostile(t, &hostileHost{noSetBase: true}),
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
		err := e.Step(EdgeStepArgs{Step: i, Members: []int{0, 1}, Capacity: 2}, &rep)
		if err == nil || !strings.Contains(err.Error(), "set base on "+addrs[0]) {
			t.Fatalf("step %d: err = %v, want the set-base failure of %s", i, err, addrs[0])
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

// TestEdgeStepMatchesTrainerOracle: edge steps over one or two device hosts
// are, bit for bit, base + Σ_host Σ_dev (LocalUpdate − base)/|sample|
// computed here with hfl.Trainer — per-host partial sums in sampled order,
// hosts in sorted-address order — under both lossless schemes. Step 0 keeps
// the model on the edge side (WantModel false): one host advances the base in
// place under a fresh ID, two hosts send sums the edge folds. Step 1 samples
// no one and asks for the model, so a one-host edge refetches the advanced
// base; step 2 trains from that base and folds.
func TestEdgeStepMatchesTrainerOracle(t *testing.T) {
	const devices = 8
	w := buildWorld(t, devices, 1, 1)
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
				table := map[int]string{}
				srvs := map[string]*DeviceServer{}
				var addrs []string
				for h := 0; h < hosts; h++ {
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
					srvs[addr] = srv
					addrs = append(addrs, addr)
					for m := range data {
						table[m] = addr
					}
				}
				sort.Strings(addrs)
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
				// hosts' books raised, continuing each one's minibatch stream.
				tr := hfl.NewTrainerPool(proto, w.test).Borrow(testHyper.BatchSize)
				sqNorms := make([]float64, testHyper.LocalEpochs)
				rngs := map[int]*rand.Rand{}
				participations := map[int]int{}
				want := append([]float64(nil), base...)
				for step, s := range steps {
					args := EdgeStepArgs{Step: step, Members: s.members, Capacity: 4, Scheme: scheme, WantModel: s.wantModel}
					if step == 0 {
						args.Model, args.ModelID, args.HasModel = global, 1, true
					}
					var rep EdgeStepReply
					if err := e.Step(args, &rep); err != nil {
						t.Fatal(err)
					}
					if step == 0 && e.stale != (hosts == 1) {
						t.Fatalf("step 0 on %d hosts left the edge stale = %v: the path under test did not run", hosts, e.stale)
					}

					sum := make([]float64, len(want))
					sampled := 0
					for _, addr := range addrs {
						hostSum := make([]float64, len(want))
						hostSampled := 0
						for _, m := range s.members {
							if table[m] != addr {
								continue
							}
							p := srvs[addr].book.Participations(m)
							if p == participations[m] {
								continue
							}
							participations[m] = p
							if rngs[m] == nil {
								rngs[m] = det.NewRand(det.DeviceBatch(runSeed, m))
							}
							if err := tr.LocalUpdate(want, w.parts[m], rngs[m], testHyper.LearningRate, sqNorms); err != nil {
								t.Fatal(err)
							}
							for j, v := range tr.ParamsInto(nil) {
								hostSum[j] += v - want[j]
							}
							hostSampled++
						}
						if len(s.members) > 0 && hostSampled == 0 {
							t.Fatalf("step %d: host %s trained no device", step, addr)
						}
						for j, v := range hostSum {
							sum[j] += v
						}
						sampled += hostSampled
					}
					if sampled != rep.Sampled {
						t.Fatalf("step %d: hosts trained %d devices, the edge reports %d", step, sampled, rep.Sampled)
					}
					if sampled > 0 {
						inv := 1 / float64(sampled)
						for j := range want {
							want[j] += float64(inv * sum[j])
						}
					}
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
			})
		}
	}
}

// TestDeviceTrainMatchesEngineTrainer: a hosted device's local update is the
// engine's — a one-device TrainMany sums exactly trained − base, where trained
// is what hfl.Trainer.LocalUpdate leaves for the same data, base model and run
// seed, whichever host serves it, and replies the same gradient norms.
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
	rng := det.NewRand(det.DeviceBatch(runSeed, device))
	// Two updates in a row: the second continues the device's minibatch stream.
	for step := 0; step < 2; step++ {
		if err := srv.SetBase(SetBaseArgs{Edge: 0, ID: 1, Model: blob}, &SetBaseReply{}); err != nil {
			t.Fatal(err)
		}
		var rep TrainManyReply
		if err := srv.TrainMany(TrainManyArgs{Step: step, Devices: []int{device}, BaseID: 1, Hyper: testHyper}, &rep); err != nil {
			t.Fatal(err)
		}
		sum, err := codec.Decode(rep.Sum, nil)
		if err != nil {
			t.Fatal(err)
		}
		sqNorms := make([]float64, testHyper.LocalEpochs)
		if err := tr.LocalUpdate(base, w.parts[device], rng, testHyper.LearningRate, sqNorms); err != nil {
			t.Fatal(err)
		}
		update := tr.ParamsInto(nil)
		for j := range update {
			update[j] -= base[j]
		}
		requireSameBits(t, fmt.Sprintf("step %d SqNorms", step), rep.SqNorms[0], sqNorms)
		requireSameBits(t, fmt.Sprintf("step %d Sum", step), sum, update)
	}
}

// TestFirstStepMatchesEngine is the in-process ≡ distributed statement as far
// as it holds today: from the same seed, data and schedule, hfl.Engine under
// MACH and a fed cluster — on one device host or two — sample the same devices
// at step 0 and record bit-identical gradient-norm windows. The windows are
// read through the UCB estimates after the step's cloud round folded them
// (Eq. 15's term A is their mean). The trajectories part at the step's edge
// aggregation, where the two sides still sum in different orders (DESIGN.md
// §6).
func TestFirstStepMatchesEngine(t *testing.T) {
	const devices, edges = 12, 3
	w := buildWorld(t, devices, edges, 1)
	all := make([]int, devices)
	for m := range all {
		all[m] = m
	}

	mach, err := sampling.NewMACH(devices, sampling.DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := hfl.DefaultConfig()
	cfg.Steps, cfg.CloudInterval, cfg.Seed = 1, 1, runSeed
	cfg.LocalEpochs, cfg.BatchSize, cfg.LearningRate = testHyper.LocalEpochs, testHyper.BatchSize, testHyper.LearningRate
	eng, err := hfl.New(cfg, testArch, w.parts, w.test, w.sched, mach)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, devices)
	mach.Book().UCBEstimatesInto(want, all, 1)
	wantSampled := make([]int64, edges)
	for m := range all {
		wantSampled[w.sched.EdgeOf(0, m)] += int64(mach.Book().Participations(m))
	}
	if total := wantSampled[0] + wantSampled[1] + wantSampled[2]; total == 0 || total == devices {
		t.Fatalf("engine sampled %d of %d devices: the comparison would be vacuous", total, devices)
	}

	for _, hosts := range []int{1, 2} {
		t.Run(fmt.Sprintf("hosts=%d", hosts), func(t *testing.T) {
			d := deployWorld(t, w, hosts, CloudConfig{
				Steps: 1, CloudInterval: 1, Participation: cfg.Participation, Seed: runSeed,
			})
			defer d.close()
			tels := make([]*telemetry.Telemetry, edges)
			for n, e := range d.edges {
				tels[n] = telemetry.New()
				e.SetTelemetry(tels[n])
			}
			if _, err := d.cloud.Run(); err != nil {
				t.Fatal(err)
			}
			got := make([]float64, 0, devices)
			for h, srv := range d.devices {
				var rep EstimateReply
				if err := srv.Estimate(EstimateArgs{Step: 1, Devices: all[h*devices/hosts : (h+1)*devices/hosts]}, &rep); err != nil {
					t.Fatal(err)
				}
				got = append(got, rep.Estimates...)
			}
			requireSameBits(t, "estimates", got, want)
			for n, tel := range tels {
				if got := tel.Count(telemetry.CounterDevicesTrained); got != wantSampled[n] {
					t.Fatalf("edge %d sampled %d devices, the engine %d", n, got, wantSampled[n])
				}
			}
		})
	}
}

// TestTrainManyRejectsBadDeviceListBeforeTraining: a TrainMany call that
// names a device twice, or a hosted device and then an unhosted one, fails
// and trains nothing — the next valid call on that host replies exactly
// what the same call on a fresh host does.
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
		if err := srv.SetBase(SetBaseArgs{Edge: 0, ID: 1, Model: blob}, &SetBaseReply{}); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	train := func(srv *DeviceServer, devices ...int) (TrainManyReply, error) {
		var reply TrainManyReply
		err := srv.TrainMany(TrainManyArgs{Edge: 0, Devices: devices, BaseID: 1, Hyper: testHyper}, &reply)
		return reply, err
	}
	want, err := train(host(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]int{"repeat": {0, 0}, "unhosted": {0, 5}} {
		t.Run(name, func(t *testing.T) {
			srv := host()
			if _, err := train(srv, bad...); err == nil {
				t.Fatalf("TrainMany(%v) succeeded", bad)
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
	// Each caller is an edge with its own cached base, training its devices
	// one RPC at a time.
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = srv.SetBase(SetBaseArgs{Edge: c, ID: 1, Model: blob}, &SetBaseReply{})
			for m := c; m < devices && errs[c] == nil; m += callers {
				errs[c] = srv.TrainMany(TrainManyArgs{Edge: c, Devices: []int{m}, BaseID: 1, Hyper: testHyper}, &TrainManyReply{})
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
