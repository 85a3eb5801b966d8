package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/fed"
	"github.com/mach-fl/mach/internal/hfl"
)

// fedReady reports whether fed runs the config the way hfl.Engine would: fed
// folds under AggPlain and trains on the f64 lane. A config's deployment
// (DESIGN.md §6) is its run 0, every role seeded with HFLConfig(0).Seed; the
// role constructors return servers unserved, so a caller can attach
// telemetry before Serve.
func (c Config) fedReady() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Aggregation != hfl.AggPlain {
		return fmt.Errorf("bench: fed runs Aggregation %v only, config has %v", hfl.AggPlain, c.Aggregation)
	}
	if lane, err := hfl.ParseLane(c.Lane); err != nil || lane != hfl.LaneF64 {
		return fmt.Errorf("bench: fed trains on Lane %v only, config has %q", hfl.LaneF64, c.Lane)
	}
	return nil
}

// hostRange is the devices host h of hosts serves: [h·D/H, (h+1)·D/H).
func (c Config) hostRange(h, hosts int) (lo, hi int) {
	return h * c.Devices / hosts, (h + 1) * c.Devices / hosts
}

// DeviceHost builds device host h of hosts over env's datasets.
func (c Config) DeviceHost(env *Environment, h, hosts int) (*fed.DeviceServer, error) {
	if err := c.fedReady(); err != nil {
		return nil, err
	}
	if h < 0 || h >= hosts || len(env.DeviceData) != c.Devices {
		return nil, fmt.Errorf("bench: device host %d of %d over %d of %d devices", h, hosts, len(env.DeviceData), c.Devices)
	}
	lo, hi := c.hostRange(h, hosts)
	data := make(map[int]*dataset.Dataset, hi-lo)
	for m := lo; m < hi; m++ {
		data[m] = env.DeviceData[m]
	}
	return fed.NewDeviceServer(c.Arch(), data, c.MACH, c.HFLConfig(0).Seed)
}

// Edge builds edge server n over the deployment's hosts, host h serving at
// hostAddrs[h]; it accepts only globals of the arch's parameter count.
func (c Config) Edge(n int, hostAddrs []string) (*fed.EdgeServer, error) {
	if err := c.fedReady(); err != nil {
		return nil, err
	}
	if n < 0 || n >= c.Edges || len(hostAddrs) == 0 {
		return nil, fmt.Errorf("bench: edge %d of %d over %d device hosts", n, c.Edges, len(hostAddrs))
	}
	seed := c.HFLConfig(0).Seed
	proto, err := c.Arch()(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	hyper := fed.Hyper{LocalEpochs: c.LocalEpochs, BatchSize: c.BatchSize, LearningRate: c.LearningRate}
	return fed.NewEdgeServer(n, c.MACH, hyper, seed, fed.StaticResolver(c.hostTable(hostAddrs)), proto.ParamVector())
}

// hostTable maps every device to the address of the host whose range holds it.
func (c Config) hostTable(hostAddrs []string) map[int]string {
	table := make(map[int]string, c.Devices)
	for h, addr := range hostAddrs {
		lo, hi := c.hostRange(h, len(hostAddrs))
		for m := lo; m < hi; m++ {
			table[m] = addr
		}
	}
	return table
}

// Cloud builds the cloud of env's run under scheme, dialing the edges and
// device hosts; its Run drives the run.
func (c Config) Cloud(env *Environment, scheme codec.Scheme, edgeAddrs, hostAddrs []string) (*fed.Cloud, error) {
	if err := c.fedReady(); err != nil {
		return nil, err
	}
	return fed.NewCloud(fed.CloudConfig{
		Steps: c.Steps, CloudInterval: c.CloudInterval, Participation: c.Participation,
		EvalEvery: c.EvalEvery, Seed: c.HFLConfig(0).Seed, Codec: scheme,
	}, c.Arch(), env.Schedule, env.Test, edgeAddrs, hostAddrs)
}

// Cluster is an in-process loopback deployment of a config; the embedded
// cloud runs it.
type Cluster struct {
	*fed.Cloud
	servers []io.Closer // the hosts, then the edges, in start order
}

// Cluster serves hosts device hosts and one edge server per edge on
// 127.0.0.1:0, and dials the cloud over them under scheme.
func (c Config) Cluster(env *Environment, hosts int, scheme codec.Scheme) (*Cluster, error) {
	cl := &Cluster{}
	serve := func(srv interface {
		io.Closer
		Serve(string) (string, error)
	}, err error) (string, error) {
		if err != nil {
			return "", err
		}
		cl.servers = append(cl.servers, srv)
		return srv.Serve("127.0.0.1:0")
	}
	var hostAddrs, edgeAddrs []string
	var err error
	for h := 0; h < hosts && err == nil; h++ {
		var addr string
		addr, err = serve(c.DeviceHost(env, h, hosts))
		hostAddrs = append(hostAddrs, addr)
	}
	for n := 0; n < c.Edges && err == nil; n++ {
		var addr string
		addr, err = serve(c.Edge(n, hostAddrs))
		edgeAddrs = append(edgeAddrs, addr)
	}
	if err == nil {
		cl.Cloud, err = c.Cloud(env, scheme, edgeAddrs, hostAddrs)
	}
	if err != nil {
		return nil, errors.Join(err, cl.Close())
	}
	return cl, nil
}

// Close tears the cluster down: the cloud, then its servers in reverse start
// order.
func (cl *Cluster) Close() error {
	var errs []error
	if cl.Cloud != nil {
		errs = append(errs, cl.Cloud.Close())
	}
	for i := len(cl.servers) - 1; i >= 0; i-- {
		errs = append(errs, cl.servers[i].Close())
	}
	return errors.Join(errs...)
}
