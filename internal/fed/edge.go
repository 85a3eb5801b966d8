package fed

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"slices"
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
// The edge maintains one baseline stream per device host (see protocol.go):
// training requests (Device.TrainMany) name the current base model by ID and
// carry it only to a host that lacks that ID, so a base ships once per host
// per change; when a single host covers the whole sample the base advances
// on the host itself — the edge then marks its own copy stale and refetches
// the bits (Device.GetBase) only when something actually needs them.
type EdgeServer struct {
	id       int
	machCfg  sampling.MACHConfig
	hyper    Hyper
	seed     int64
	resolver Resolver

	// step serializes Step: the edge runs one time step at a time, and what
	// only Step touches — installed and the step buffers below — is its own.
	step      sync.Mutex
	installed map[string]uint64 // host address → base ID it has cached
	replies   []TrainManyReply  // per sampled host; their blobs' capacity is reused
	sum       []float64         // Σ over hosts of the update sums
	hostSum   []float64         // one host's decoded update sum
	order     []int             // the sampled hosts' reduce order (reduceOrder)
	group     []int             // reduceOrder's per-host scratch

	mu     sync.Mutex
	params []float64
	// stale marks that the authoritative base bits live on staleAddr (the
	// host advanced the base in place) rather than in params.
	stale     bool
	staleAddr string
	baseID    uint64    // ID of the current base model
	lastID    uint64    // monotonic baseline-ID allocator
	cloudView []float64 // last global model decoded from the cloud
	cloudID   uint64    // its baseline ID (EdgeStepArgs.ModelID)
	efReply   []float64 // error feedback for lossy cloud-reply encodes

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

// resolveHosts resolves each member's host once: addrs lists the distinct
// host addresses sorted, so per-host RPC dispatch and result ordering are
// stable across runs, and host[i] is members[i]'s position in addrs.
func (e *EdgeServer) resolveHosts(members []int) (addrs []string, host []int, err error) {
	memberAddr := make([]string, len(members))
	for i, m := range members {
		if memberAddr[i], err = e.resolver(m); err != nil {
			return nil, nil, err
		}
	}
	addrs = slices.Clone(memberAddr)
	slices.Sort(addrs)
	addrs = slices.Compact(addrs)
	host = make([]int, len(members))
	for i, addr := range memberAddr {
		host[i], _ = slices.BinarySearch(addrs, addr)
	}
	return addrs, host, nil
}

// groupByHost splits ids by host: for each host position h that any ID has
// (host[i] is ids[i]'s), in order, it returns addrs[h] and those IDs in ids
// order.
func groupByHost(ids, host []int, addrs []string) (groupAddrs []string, groups [][]int) {
	byHost := make([][]int, len(addrs))
	for i, id := range ids {
		byHost[host[i]] = append(byHost[host[i]], id)
	}
	for h, group := range byHost {
		if len(group) != 0 {
			groupAddrs, groups = append(groupAddrs, addrs[h]), append(groups, group)
		}
	}
	return groupAddrs, groups
}

// reduceOrder returns the order the edge adds its sampled hosts' update sums
// in, as indices of groupByHost's sampled groups: by each host's first member
// in the step (host[i] is member i's host position), which the run alone
// fixes. Address order follows the ports, and three or more sums do not
// commute. The result is valid until the next step.
func (e *EdgeServer) reduceOrder(host, sampledHost []int, hosts int) []int {
	group := slices.Grow(e.group[:0], hosts)[:hosts] // 1 + the host's sampled-group index, 0 if unsampled
	clear(group)
	for _, h := range sampledHost {
		group[h] = 1
	}
	k := 0
	for h, g := range group {
		if g != 0 {
			k++
			group[h] = k
		}
	}
	order := e.order[:0]
	for _, h := range host {
		if group[h] != 0 {
			order = append(order, group[h]-1)
			group[h] = 0
		}
	}
	e.group, e.order = group, order
	return order
}

// stepSpanID is the edge's handler-span ID for one step — the parent of
// every client RPC span the edge opens while executing it. A pure hash, so
// helpers re-derive it instead of threading the Span value around.
func (e *EdgeServer) stepSpanID(step int) telemetry.SpanID {
	return telemetry.DeriveSpanID(telemetry.SpanHandleEdgeStep, step, e.id, -1)
}

// Step implements the edge's share of Algorithm 1 for one time step.
// Overlapping calls (a retrying or hostile cloud) run one after the other.
func (e *EdgeServer) Step(args EdgeStepArgs, reply *EdgeStepReply) error {
	e.step.Lock()
	defer e.step.Unlock()
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

	addrs, host, err := e.resolveHosts(args.Members)
	if err != nil {
		return err
	}
	_, groups := groupByHost(args.Members, host, addrs) // every host has a member
	estimates, err := e.fetchEstimates(args.Step, addrs, host, groups)
	if err != nil {
		return err
	}

	// Edge sampling (Algorithm 3), in place over the fetched estimates, and
	// Bernoulli device sampling on the engine's coin stream for (step, edge).
	probs := sampling.EdgeSamplingInto(e.machCfg, args.Capacity, estimates, estimates)
	rng := det.NewRand(det.EdgeCoin(e.seed, args.Step, e.id))
	var sampled, sampledHost []int
	for i, m := range args.Members {
		q := probs[i]
		if !(q >= 0 && q <= 1) {
			return fmt.Errorf("fed: edge %d: device %d sampling probability %v, outside [0, 1]", e.id, m, q)
		}
		if rng.Float64() < q {
			sampled = append(sampled, m)
			sampledHost = append(sampledHost, host[i])
		}
	}
	if len(sampled) == 0 {
		return e.finishStep(args, 0, reply)
	}

	// Within a host the sampled order is kept: it fixes the summation order
	// of the aggregation.
	sampledAddrs, sampledGroups := groupByHost(sampled, sampledHost, addrs)
	order := e.reduceOrder(host, sampledHost, len(addrs))
	if err := e.train(args, len(sampled), sampledAddrs, sampledGroups, order); err != nil {
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
		return c.Call("Device.GetBase", &GetBaseArgs{Edge: e.id, ID: id, Span: span}, &rep)
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
// concurrently, groups[h] from addrs[h]. Merging walks the hosts in order,
// so the first surfaced error is deterministic, and the members in order,
// each taking its host's next estimate.
func (e *EdgeServer) fetchEstimates(step int, addrs []string, host []int, groups [][]int) ([]float64, error) {
	replies := make([]EstimateReply, len(addrs))
	errs := e.fanOut(step, telemetry.SpanRPCEstimate, addrs, func(i int, c *rpc.Client, span SpanContext) error {
		return c.Call("Device.Estimate", &EstimateArgs{Step: step, Devices: groups[i], Span: span}, &replies[i])
	})
	for i, addr := range addrs {
		if errs[i] != nil {
			return nil, fmt.Errorf("fed: edge %d estimate via %s: %w", e.id, addr, errs[i])
		}
		if len(replies[i].Estimates) != len(groups[i]) {
			return nil, fmt.Errorf("fed: edge %d: host %s returned %d estimates for %d devices",
				e.id, addr, len(replies[i].Estimates), len(groups[i]))
		}
	}
	estimates := make([]float64, len(host))
	next := make([]int, len(addrs))
	for i, h := range host {
		estimates[i] = replies[h].Estimates[next[h]]
		next[h]++
	}
	return estimates, nil
}

// train runs the step's training: it dispatches one TrainMany per host,
// attaching the current base for the hosts that lack it, and folds the
// hosts' update sums into the next base in the given order (reduceOrder) —
// or, when one host covers the whole sample and the cloud does not need the
// model this step, lets that host advance the base in place so no model
// bytes cross the wire.
func (e *EdgeServer) train(args EdgeStepArgs, totalSampled int, addrs []string, groups [][]int, order []int) error {
	advance := len(addrs) == 1 && !args.WantModel
	e.mu.Lock()
	baseID := e.baseID
	e.mu.Unlock()
	ship := make([]bool, len(addrs))
	for i, addr := range addrs {
		ship[i] = e.installed[addr] != baseID
	}
	// The base is encoded at most once per step, into a pooled buffer that
	// every Call below has left before the deferred Put.
	buf := blobPool.Get().(*[]byte)
	defer blobPool.Put(buf)
	var base codec.Blob
	encodeBase := func() error {
		if base.Data != nil {
			return nil // encoded already
		}
		if err := e.ensureParams(args.Step); err != nil {
			return err
		}
		e.mu.Lock()
		params := e.params
		e.mu.Unlock()
		blob, err := codec.AppendEncode((*buf)[:0], args.Scheme, params, nil, 0, nil)
		if err != nil {
			return fmt.Errorf("fed: edge %d encode base: %w", e.id, err)
		}
		base, *buf = blob, blob.Data
		return nil
	}
	if slices.Contains(ship, true) {
		if err := encodeBase(); err != nil {
			return err
		}
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
	if len(e.replies) < len(addrs) {
		e.replies = append(e.replies, make([]TrainManyReply, len(addrs)-len(e.replies))...)
	}
	replies := e.replies[:len(addrs)]
	trainMany := func(i int, c *rpc.Client, span SpanContext) error {
		req := &TrainManyArgs{
			Step:    args.Step,
			Edge:    e.id,
			Devices: groups[i],
			BaseID:  baseID,
			Scheme:  args.Scheme,
			Hyper:   e.hyper,
			Advance: advance,
			NextID:  nextID,
			Span:    span,
		}
		if ship[i] {
			req.Base, req.HasBase = base, true
		}
		return c.Call("Device.TrainMany", req, &replies[i])
	}
	errs := e.fanOut(args.Step, telemetry.SpanRPCTrainMany, addrs, trainMany)
	var firstErr error
	for i, addr := range addrs {
		if isUnknownBaseline(errs[i]) && !ship[i] {
			// The host lost its base cache (e.g. a restart): the failed lookup
			// happened before any training, so resend the call with the base
			// attached. A stale edge whose authoritative host forgot the base
			// cannot recover: ensureParams surfaces that as its own error.
			if errs[i] = encodeBase(); errs[i] == nil {
				ship[i] = true
				errs[i] = e.callHost(args.Step, telemetry.SpanRPCTrainMany, i, addr, trainMany)
			}
		}
		switch {
		case errs[i] == nil && ship[i]:
			e.downloads.Add(1)
			e.installed[addr] = baseID
		case errs[i] != nil && firstErr == nil:
			firstErr = fmt.Errorf("fed: edge %d training via %s: %w", e.id, addr, errs[i])
		}
	}
	if firstErr != nil {
		return firstErr
	}

	if advance {
		addr := addrs[0]
		e.mu.Lock()
		e.stale = true
		e.staleAddr = addr
		e.baseID = nextID
		e.mu.Unlock()
		e.installed[addr] = nextID
		return nil
	}

	e.mu.Lock()
	params := e.params
	e.mu.Unlock()
	for i, addr := range addrs {
		if !replies[i].HasSum {
			return fmt.Errorf("fed: edge %d: host %s returned no update sum", e.id, addr)
		}
		if replies[i].Sum.Count != len(params) {
			return fmt.Errorf("fed: edge %d: host %s summed %d params, want %d",
				e.id, addr, replies[i].Sum.Count, len(params))
		}
	}
	e.sum = zeroed(e.sum, len(params))
	for _, i := range order {
		hostSum, err := codec.DecodeInto(e.hostSum, replies[i].Sum, nil)
		if err != nil {
			return fmt.Errorf("fed: edge %d decode sum from %s: %w", e.id, addrs[i], err)
		}
		e.hostSum = hostSum
		e.uploads.Add(1)
		tensor.Add(e.sum, hostSum)
	}
	next := nextBase(params, e.sum, totalSampled)
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

// zeroed returns buf resized to n zeros, reallocating only when it is too
// small.
func zeroed(buf []float64, n int) []float64 {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// isUnknownBaseline detects codec.ErrUnknownBaseline both locally and
// across net/rpc, which flattens errors to strings.
func isUnknownBaseline(err error) bool {
	return err != nil && (errors.Is(err, codec.ErrUnknownBaseline) ||
		strings.Contains(err.Error(), codec.ErrUnknownBaseline.Error()))
}
