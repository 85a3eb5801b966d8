package fed

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
	"github.com/mach-fl/mach/internal/tensor"
)

// EdgeServer executes one edge's share of every time step: it fetches its
// current members' G̃² estimates from their device hosts, derives the edge
// sampling strategy (Algorithm 3), dispatches local training, and aggregates
// the returned updates into the edge model.
//
// The edge maintains one baseline stream per device host (see protocol.go): the current base model is installed on a
// host once per change (Device.SetBase), training requests name it by ID,
// and when a single host covers the whole sample the base advances on the
// host itself — the edge then marks its own copy stale and refetches the
// bits (Device.GetBase) only when something actually needs them.
type EdgeServer struct {
	id       int
	machCfg  sampling.MACHConfig
	hyper    Hyper
	seed     int64
	resolver Resolver

	mu     sync.Mutex
	params []float64
	// stale marks that the authoritative base bits live on staleAddr (the
	// host advanced the base in place) rather than in params.
	stale     bool
	staleAddr string
	baseID    uint64            // ID of the current base model
	lastID    uint64            // monotonic baseline-ID allocator
	installed map[string]uint64 // host address → base ID it has cached
	cloudView []float64         // last global model decoded from the cloud
	cloudID   uint64            // its baseline ID (EdgeStepArgs.ModelID)
	efReply   []float64         // error feedback for lossy cloud-reply encodes

	clients  map[string]*rpc.Client
	listener net.Listener

	// Measured wire traffic on the edge↔device-host connections, plus
	// model-bearing message counts (Edge.Comm exposes them).
	commUp    atomic.Int64 // bytes hosts sent us: device uplink
	commDown  atomic.Int64 // bytes we sent hosts: device downlink
	uploads   atomic.Int64
	downloads atomic.Int64

	// tel counts served RPCs and step activity; nil disables it.
	tel *telemetry.Telemetry
}

// SetTelemetry attaches a telemetry sink (nil detaches). Call before Serve.
func (e *EdgeServer) SetTelemetry(t *telemetry.Telemetry) { e.tel = t }

// Resolver maps a logical device ID to the address of the host serving it.
// Deployments back it with static config or a registry.
type Resolver func(device int) (string, error)

// StaticResolver resolves from a fixed device→address table.
func StaticResolver(table map[int]string) Resolver {
	return func(device int) (string, error) {
		addr, ok := table[device]
		if !ok {
			return "", fmt.Errorf("fed: no host for device %d", device)
		}
		return addr, nil
	}
}

// NewEdgeServer creates an edge. seed is the run's seed, the same on every
// edge; initialParams seeds the edge model, which the cloud replaces with the
// global at step 0 and after every global aggregation. Its values are never
// read, but its length is the parameter count every incoming global must
// claim: an edge built with nil accepts whatever Count the first global
// names, so deployments facing an untrusted cloud pass the arch's initial
// ParamVector.
func NewEdgeServer(id int, machCfg sampling.MACHConfig, hyper Hyper, seed int64, resolver Resolver, initialParams []float64) (*EdgeServer, error) {
	if err := machCfg.Validate(); err != nil {
		return nil, err
	}
	if resolver == nil {
		return nil, fmt.Errorf("fed: edge %d needs a resolver", id)
	}
	return &EdgeServer{
		id:       id,
		machCfg:  machCfg,
		hyper:    hyper,
		seed:     seed,
		resolver: resolver,
		params:   append([]float64(nil), initialParams...),
		// Baseline IDs start at 1: hosts' zero-valued cache entries must
		// never look like an already-installed base.
		baseID:    1,
		lastID:    1,
		installed: make(map[string]uint64),
		clients:   make(map[string]*rpc.Client),
	}, nil
}

// Serve starts the edge's RPC listener and returns the bound address.
func (e *EdgeServer) Serve(addr string) (string, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Edge", e); err != nil {
		return "", fmt.Errorf("fed: register edge service: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("fed: edge listen: %w", err)
	}
	e.listener = ln
	go acceptLoop(srv, ln)
	return ln.Addr().String(), nil
}

// Close stops the listener and drops device-host connections, reporting
// the first failure.
func (e *EdgeServer) Close() error {
	var firstErr error
	e.mu.Lock()
	for _, c := range e.clients {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.clients = map[string]*rpc.Client{}
	e.mu.Unlock()
	if e.listener != nil {
		if err := e.listener.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Ping implements the liveness RPC.
func (e *EdgeServer) Ping(_ PingArgs, reply *PingReply) error {
	e.tel.Add(telemetry.CounterRPCCalls, 1)
	reply.Role = fmt.Sprintf("edge-%d", e.id)
	return nil
}

// Comm reports the edge's measured device-host traffic.
func (e *EdgeServer) Comm(_ CommArgs, reply *CommReply) error {
	e.tel.Add(telemetry.CounterRPCCalls, 1)
	reply.UplinkBytes = e.commUp.Load()
	reply.DownlinkBytes = e.commDown.Load()
	reply.Uploads = e.uploads.Load()
	reply.Downloads = e.downloads.Load()
	return nil
}

func (e *EdgeServer) client(addr string) (*rpc.Client, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.clients[addr]; ok {
		return c, nil
	}
	c, err := dialCounting(addr, &e.commUp, &e.commDown)
	if err != nil {
		return nil, fmt.Errorf("fed: edge %d dial %s: %w", e.id, addr, err)
	}
	e.clients[addr] = c
	return c, nil
}

// groupByHost resolves each member to its host address and groups them.
// Addresses are collected at insertion time and sorted, never by walking
// the map, so per-group RPC dispatch and result ordering are stable across
// runs. The returned memberAddr table lets later phases of the step reuse
// the resolution instead of querying the resolver again.
func (e *EdgeServer) groupByHost(members []int) (groups map[string][]int, addrs []string, memberAddr map[int]string, err error) {
	groups = map[string][]int{}
	memberAddr = make(map[int]string, len(members))
	for _, m := range members {
		addr, err := e.resolver(m)
		if err != nil {
			return nil, nil, nil, err
		}
		if _, ok := groups[addr]; !ok {
			addrs = append(addrs, addr)
		}
		groups[addr] = append(groups[addr], m)
		memberAddr[m] = addr
	}
	sort.Strings(addrs)
	return groups, addrs, memberAddr, nil
}

// stepSpanID is the edge's handler-span ID for one step — the parent of
// every client RPC span the edge opens while executing it. A pure hash, so
// helpers re-derive it instead of threading the Span value around.
func (e *EdgeServer) stepSpanID(step int) telemetry.SpanID {
	return telemetry.DeriveSpanID(telemetry.SpanHandleEdgeStep, step, e.id, -1)
}

// Step implements the edge's share of Algorithm 1 for one time step.
func (e *EdgeServer) Step(args EdgeStepArgs, reply *EdgeStepReply) error {
	e.tel.Add(telemetry.CounterRPCCalls, 1)
	stepStart := e.tel.Now()
	sp := e.tel.StartSpan(telemetry.SpanHandleEdgeStep, telemetry.SpanID(args.Span.Parent), args.Step, e.id, -1)
	defer sp.End()
	defer e.tel.ObserveSince(telemetry.HistStepNS, stepStart)
	e.tel.Observe(telemetry.HistEdgeMembers, int64(len(args.Members)))
	if err := args.Scheme.Validate(); err != nil {
		return err
	}
	if args.HasModel {
		if err := e.installGlobal(args); err != nil {
			return err
		}
	}
	if len(args.Members) == 0 {
		return e.finishStep(args, 0, reply)
	}

	groups, addrs, memberAddr, err := e.groupByHost(args.Members)
	if err != nil {
		return err
	}
	estimates, err := e.fetchEstimates(args.Step, args.Members, groups, addrs)
	if err != nil {
		return err
	}

	// Edge sampling (Algorithm 3), in place over the fetched estimates, and
	// Bernoulli device sampling on the engine's coin stream for (step, edge).
	probs := sampling.EdgeSamplingInto(e.machCfg, args.Capacity, estimates, estimates)
	rng := det.NewRand(det.EdgeCoin(e.seed, args.Step, e.id))
	var sampled []int
	for i, m := range args.Members {
		if rng.Float64() < probs[i] {
			sampled = append(sampled, m)
		}
	}
	if len(sampled) == 0 {
		return e.finishStep(args, 0, reply)
	}

	// Group the sampled devices by host, reusing the member resolution.
	// Within a host the sampled order is kept: it fixes the summation order
	// of the aggregation.
	sampledGroups := map[string][]int{}
	var sampledAddrs []string
	for _, m := range sampled {
		addr := memberAddr[m]
		if _, ok := sampledGroups[addr]; !ok {
			sampledAddrs = append(sampledAddrs, addr)
		}
		sampledGroups[addr] = append(sampledGroups[addr], m)
	}
	sort.Strings(sampledAddrs)

	if err := e.train(args, len(sampled), sampledAddrs, sampledGroups); err != nil {
		return err
	}
	return e.finishStep(args, len(sampled), reply)
}

// installGlobal decodes the cloud's global model from EdgeStepArgs and makes
// it the edge's current base.
func (e *EdgeServer) installGlobal(args EdgeStepArgs) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var baseline []float64
	if args.Model.Baseline != 0 {
		if e.cloudView == nil || args.Model.Baseline != e.cloudID {
			return fmt.Errorf("fed: edge %d has no global %d to delta against: %w",
				e.id, args.Model.Baseline, codec.ErrUnknownBaseline)
		}
		baseline = e.cloudView
	}
	if len(e.params) != 0 && args.Model.Count != len(e.params) {
		return fmt.Errorf("fed: edge %d: global of %d params, edge model has %d", e.id, args.Model.Count, len(e.params))
	}
	global, err := codec.Decode(args.Model, baseline)
	if err != nil {
		return fmt.Errorf("fed: edge %d decode global: %w", e.id, err)
	}
	e.cloudView = global
	e.cloudID = args.ModelID
	e.params = append([]float64(nil), global...)
	e.stale = false
	e.lastID++
	e.baseID = e.lastID
	return nil
}

// finishStep fills the step reply, with the edge model encoded only when the
// cloud asked for it.
func (e *EdgeServer) finishStep(args EdgeStepArgs, sampled int, reply *EdgeStepReply) error {
	e.tel.Observe(telemetry.HistEdgeSampled, int64(sampled))
	e.tel.Add(telemetry.CounterDevicesTrained, int64(sampled))
	reply.Sampled = sampled
	if !args.WantModel {
		return nil
	}
	if err := e.ensureParams(args.Step); err != nil {
		return err
	}
	e.mu.Lock()
	params := e.params
	baseline := e.cloudView
	baseID := e.cloudID
	var ef []float64
	if args.Scheme == codec.SchemeInt8 {
		if len(e.efReply) != len(params) {
			e.efReply = make([]float64, len(params))
		}
		ef = e.efReply
	}
	e.mu.Unlock()
	if baseline != nil && len(baseline) != len(params) {
		baseline, baseID = nil, 0
	}
	blob, err := codec.Encode(args.Scheme, params, baseline, baseID, ef)
	if err != nil {
		return fmt.Errorf("fed: edge %d encode model: %w", e.id, err)
	}
	reply.Model = blob
	reply.HasModel = true
	return nil
}

// ensureParams makes e.params authoritative again after a host-side base
// advance, by fetching the bits back (always lossless). step labels the
// fetch's RPC span with the step it serves.
func (e *EdgeServer) ensureParams(step int) error {
	e.mu.Lock()
	if !e.stale {
		e.mu.Unlock()
		return nil
	}
	addr, id, want := e.staleAddr, e.baseID, len(e.params)
	e.mu.Unlock()
	var rep GetBaseReply
	if err := e.callHost(step, telemetry.SpanRPCGetBase, -1, addr, func(_ int, c *rpc.Client, span SpanContext) error {
		return c.Call("Device.GetBase", GetBaseArgs{Edge: e.id, ID: id, Span: span}, &rep)
	}); err != nil {
		return fmt.Errorf("fed: edge %d fetch base %d from %s: %w", e.id, id, addr, err)
	}
	if rep.Model.Count != want {
		return fmt.Errorf("fed: edge %d: host %s returned a base of %d params, want %d", e.id, addr, rep.Model.Count, want)
	}
	params, err := codec.Decode(rep.Model, nil)
	if err != nil {
		return fmt.Errorf("fed: edge %d decode base %d: %w", e.id, id, err)
	}
	e.uploads.Add(1)
	e.mu.Lock()
	e.params = params
	e.stale = false
	e.mu.Unlock()
	return nil
}

// hostCall makes one RPC on the i-th host of a fan-out through c, carrying
// span in its args.
type hostCall func(i int, c *rpc.Client, span SpanContext) error

// callHost makes one RPC to the host at addr inside a client span of kind
// parented to the edge's step span. The span's device coordinate is i, the
// host's position in its fan-out (-1 outside one), and the SpanContext the
// call puts in its args is derived from the same coordinates.
func (e *EdgeServer) callHost(step int, kind telemetry.SpanKind, i int, addr string, call hostCall) error {
	c, err := e.client(addr)
	if err != nil {
		return err
	}
	sp := e.tel.StartSpan(kind, e.stepSpanID(step), step, e.id, i)
	defer sp.End()
	return call(i, c, SpanContext{Parent: uint64(telemetry.DeriveSpanID(kind, step, e.id, i))})
}

// fanOut runs call on every host in addrs concurrently, one goroutine per
// host, and returns the errors aligned with addrs: callers walk them in that
// (sorted) order, so the error they surface does not depend on which RPC
// happened to fail first.
func (e *EdgeServer) fanOut(step int, kind telemetry.SpanKind, addrs []string, call hostCall) []error {
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = e.callHost(step, kind, i, addr, call)
		}()
	}
	wg.Wait()
	return errs
}

// fetchEstimates queries the members' UCB estimates host by host,
// concurrently. Merging walks the sorted address list, so both the
// resulting estimate order and the first surfaced error are deterministic.
func (e *EdgeServer) fetchEstimates(step int, members []int, groups map[string][]int, addrs []string) ([]float64, error) {
	replies := make([]EstimateReply, len(addrs))
	errs := e.fanOut(step, telemetry.SpanRPCEstimate, addrs, func(i int, c *rpc.Client, span SpanContext) error {
		return c.Call("Device.Estimate", EstimateArgs{Step: step, Devices: groups[addrs[i]], Span: span}, &replies[i])
	})
	estimate := make(map[int]float64, len(members))
	for i, addr := range addrs {
		if errs[i] != nil {
			return nil, fmt.Errorf("fed: edge %d estimate via %s: %w", e.id, addr, errs[i])
		}
		if len(replies[i].Estimates) != len(groups[addr]) {
			return nil, fmt.Errorf("fed: edge %d: host %s returned %d estimates for %d devices",
				e.id, addr, len(replies[i].Estimates), len(groups[addr]))
		}
		for j, id := range groups[addr] {
			estimate[id] = replies[i].Estimates[j]
		}
	}
	estimates := make([]float64, len(members))
	for i, m := range members {
		estimates[i] = estimate[m]
	}
	return estimates, nil
}

// train runs the step's training: it makes sure every participating host
// caches the current base, dispatches one TrainMany per host, and folds the
// hosts' update sums into the next base — or, when one host covers the whole
// sample and the cloud does not need the model this step, lets that host
// advance the base in place so no model bytes cross the wire.
func (e *EdgeServer) train(args EdgeStepArgs, totalSampled int, sampledAddrs []string, sampledGroups map[string][]int) error {
	advance := len(sampledAddrs) == 1 && !args.WantModel

	// Install the current base on hosts that do not have it. Needs the
	// authoritative bits, so a stale edge refetches them first.
	e.mu.Lock()
	baseID := e.baseID
	e.mu.Unlock()
	var missing []string
	for _, addr := range sampledAddrs {
		if e.installed[addr] != baseID {
			missing = append(missing, addr)
		}
	}
	if err := e.setBaseOn(args.Step, missing, args.Scheme, baseID); err != nil {
		return err
	}
	// The host-side advance installs the next base under a fresh ID; the sum
	// path folds next = base + Σ/|sample| edge-side, so it needs the bits.
	var nextID uint64
	if advance {
		e.mu.Lock()
		e.lastID++
		nextID = e.lastID
		e.mu.Unlock()
	} else if err := e.ensureParams(args.Step); err != nil {
		return err
	}
	replies := make([]TrainManyReply, len(sampledAddrs))
	trainMany := func(i int, c *rpc.Client, span SpanContext) error {
		replies[i] = TrainManyReply{}
		return c.Call("Device.TrainMany", TrainManyArgs{
			Step:    args.Step,
			Edge:    e.id,
			Devices: sampledGroups[sampledAddrs[i]],
			BaseID:  baseID,
			Scheme:  args.Scheme,
			Hyper:   e.hyper,
			Advance: advance,
			NextID:  nextID,
			Span:    span,
		}, &replies[i])
	}
	errs := e.fanOut(args.Step, telemetry.SpanRPCTrainMany, sampledAddrs, trainMany)
	for i, addr := range sampledAddrs {
		if isUnknownBaseline(errs[i]) {
			// The host lost its base cache (e.g. a restart): the failed lookup
			// happened before any training, so reinstall the base and retry
			// once. A stale edge whose authoritative host forgot the base
			// cannot recover: ensureParams surfaces that as its own error.
			if err := e.setBaseOn(args.Step, []string{addr}, args.Scheme, baseID); err != nil {
				return err
			}
			errs[i] = e.callHost(args.Step, telemetry.SpanRPCTrainMany, i, addr, trainMany)
		}
		if errs[i] != nil {
			return fmt.Errorf("fed: edge %d training via %s: %w", e.id, addr, errs[i])
		}
	}

	if advance {
		addr := sampledAddrs[0]
		e.mu.Lock()
		e.stale = true
		e.staleAddr = addr
		e.baseID = nextID
		e.mu.Unlock()
		e.installed[addr] = nextID
		return nil
	}

	e.mu.Lock()
	base := e.params
	e.mu.Unlock()
	sum := make([]float64, len(base))
	for i, addr := range sampledAddrs {
		if !replies[i].HasSum {
			return fmt.Errorf("fed: edge %d: host %s returned no update sum", e.id, addr)
		}
		if replies[i].Sum.Count != len(base) {
			return fmt.Errorf("fed: edge %d: host %s summed %d params, want %d",
				e.id, addr, replies[i].Sum.Count, len(base))
		}
		hostSum, err := codec.Decode(replies[i].Sum, nil)
		if err != nil {
			return fmt.Errorf("fed: edge %d decode sum from %s: %w", e.id, addr, err)
		}
		e.uploads.Add(1)
		tensor.Add(sum, hostSum)
	}
	next := nextBase(base, sum, totalSampled)
	e.mu.Lock()
	e.params = next
	e.lastID++
	e.baseID = e.lastID
	e.mu.Unlock()
	return nil
}

// nextBase is the base model after a step whose n sampled updates sum to
// sum: base + Σ/n, as a fresh vector so cached baselines never alias a
// mutating slice. The edge-side fold and the host-side advance both call it,
// so the two paths are one float expression.
func nextBase(base, sum []float64, n int) []float64 {
	next := append([]float64(nil), base...)
	tensor.Axpy(next, 1/float64(n), sum)
	return next
}

// setBaseOn installs the edge's current base model on the given hosts: the
// base is encoded once and the per-host Device.SetBase RPCs run concurrently,
// errors surfacing in addrs order. A host that lost its cache (restart)
// simply gets the full baseline-free blob again — the vector IDs make the
// stream self-describing. step labels the RPC spans.
func (e *EdgeServer) setBaseOn(step int, addrs []string, scheme codec.Scheme, id uint64) error {
	if len(addrs) == 0 {
		return nil
	}
	if err := e.ensureParams(step); err != nil {
		return err
	}
	e.mu.Lock()
	params := e.params
	e.mu.Unlock()
	blob, err := codec.Encode(scheme, params, nil, 0, nil)
	if err != nil {
		return fmt.Errorf("fed: edge %d encode base: %w", e.id, err)
	}
	errs := e.fanOut(step, telemetry.SpanRPCSetBase, addrs, func(_ int, c *rpc.Client, span SpanContext) error {
		return c.Call("Device.SetBase", SetBaseArgs{Edge: e.id, ID: id, Model: blob, Span: span}, &SetBaseReply{})
	})
	var firstErr error
	for i, addr := range addrs {
		if errs[i] == nil {
			e.downloads.Add(1)
			e.installed[addr] = id
		} else if firstErr == nil {
			firstErr = fmt.Errorf("fed: edge %d set base on %s: %w", e.id, addr, errs[i])
		}
	}
	return firstErr
}

// isUnknownBaseline detects codec.ErrUnknownBaseline both locally and
// across net/rpc, which flattens errors to strings.
func isUnknownBaseline(err error) bool {
	return err != nil && (errors.Is(err, codec.ErrUnknownBaseline) ||
		strings.Contains(err.Error(), codec.ErrUnknownBaseline.Error()))
}
