package fed

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
	"github.com/mach-fl/mach/internal/tensor"
)

// EdgeServer executes one edge's share of every time step: it fetches its
// current members' G̃² estimates and dataset sizes from their device hosts,
// derives the edge sampling strategy (Algorithm 3), samples and weights the
// members with hfl.Decision under hfl.AggPlain, the rule of every fed
// deployment, dispatches local training, and aggregates the returned
// updates into the edge model.
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

	// stepMu serializes step: the edge runs one time step at a time, and
	// everything from here to mu is step's own — the edge model, the
	// baseline bookkeeping and the step buffers, reused step after step.
	stepMu sync.Mutex
	params []float64
	// stale marks that the authoritative base bits live on staleAddr (the
	// host advanced the base in place) rather than in params.
	stale      bool
	staleAddr  string
	baseID     uint64            // ID of the current base model
	lastID     uint64            // monotonic baseline-ID allocator
	cloudView  []float64         // last global model decoded from the cloud
	cloudID    uint64            // its baseline ID (EdgeStepArgs.ModelID)
	cloudNext  []float64         // what the next global decodes into; it swaps with cloudView
	efReply    []float64         // error feedback for lossy cloud-reply encodes
	installed  map[string]uint64 // host address → base ID it has cached
	fan        fanOut            // the step's concurrent host RPCs
	coins      *rand.Rand        // the step's coin stream, re-seeded per step
	memberAddr []string          // per member: its host's address
	addrs      []string          // the members' distinct host addresses, sorted
	host       []int             // per member: its host's position in addrs
	order      []int             // the host positions by first member (resolveHosts)
	calls      []hostCalls       // per host position: its calls of the step
	sampled    []int             // the sampled hosts' positions, in address order
	probs      []float64         // per member: its estimate, then its probability
	sizes      []int             // per member: its dataset size |D_m|
	decision   hfl.Decision      // the step's sampled members and their weights
	baseArgs   GetBaseArgs       // ensureParams' call
	baseReply  GetBaseReply      // its reply; the blob's capacity is reused
	baseBlob   []byte            // train's encode of the base it ships
	hostSum    []float64         // one host's decoded update sum

	mu       sync.Mutex // guards clients: Close may run during a step
	clients  map[string]*client
	listener *rpcListener

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
		coins:     det.NewRand(0),
		clients:   make(map[string]*client),
	}, nil
}

// Serve starts the edge's RPC listener and returns the bound address.
func (e *EdgeServer) Serve(addr string) (string, error) {
	ln, err := listen(e, "Edge", addr)
	if err != nil {
		return "", fmt.Errorf("fed: edge listen: %w", err)
	}
	e.listener = ln
	return ln.Addr().String(), nil
}

// Close stops the listener and its accepted connections and drops the host
// connections, failing any call in flight. It reports the first failure.
func (e *EdgeServer) Close() error {
	var firstErr error
	e.mu.Lock()
	for _, c := range e.clients {
		if err := c.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.clients = map[string]*client{}
	e.mu.Unlock()
	if e.listener != nil {
		if err := e.listener.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (e *EdgeServer) serve(m *msgs, method []byte, body *wirer) (wireMsg, error) {
	switch string(method) {
	case "Edge.Ping":
		return handle(body, &PingArgs{}, &m.ping, e.ping)
	case "Edge.Comm":
		return handle(body, &CommArgs{}, &m.comm, e.comm)
	case "Edge.Step":
		return handle(body, &m.step, &m.stepped, e.step)
	}
	return nil, fmt.Errorf("fed: edge serves no method %q", method)
}

// ping is the liveness RPC.
func (e *EdgeServer) ping(_ *PingArgs, reply *PingReply) error {
	e.tel.Add(telemetry.CounterRPCCalls, 1)
	reply.Role = fmt.Sprintf("edge-%d", e.id)
	return nil
}

// comm reports the edge's measured device-host traffic.
func (e *EdgeServer) comm(_ *CommArgs, reply *CommReply) error {
	e.tel.Add(telemetry.CounterRPCCalls, 1)
	reply.UplinkBytes = e.commUp.Load()
	reply.DownlinkBytes = e.commDown.Load()
	reply.Uploads = e.uploads.Load()
	reply.Downloads = e.downloads.Load()
	return nil
}

func (e *EdgeServer) client(addr string) (*client, error) {
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

// resolveHosts resolves each member's host once: e.addrs lists the distinct
// host addresses sorted, so per-host RPC dispatch and result ordering are
// stable across runs; e.host[i] is members[i]'s position in e.addrs, and
// that host's call slot lists its members in member order. e.order lists the
// host positions by each host's first member: the order the edge adds the
// hosts' update sums in, which the run alone fixes, whereas address order
// follows the ports, and three or more sums do not commute.
func (e *EdgeServer) resolveHosts(members []int) (err error) {
	e.memberAddr = resize(e.memberAddr, len(members))
	for i, m := range members {
		if e.memberAddr[i], err = e.resolver(m); err != nil {
			return err
		}
	}
	e.addrs = append(e.addrs[:0], e.memberAddr...)
	slices.Sort(e.addrs)
	e.addrs = slices.Compact(e.addrs)
	e.calls = resize(e.calls, len(e.addrs))
	for h := range e.calls {
		e.calls[h].estimate.Devices = e.calls[h].estimate.Devices[:0]
	}
	e.host, e.order = resize(e.host, len(members)), e.order[:0]
	for i, addr := range e.memberAddr {
		h, _ := slices.BinarySearch(e.addrs, addr)
		hc := &e.calls[h]
		if len(hc.estimate.Devices) == 0 {
			e.order = append(e.order, h)
		}
		e.host[i], hc.estimate.Devices = h, append(hc.estimate.Devices, members[i])
	}
	return nil
}

// hostCalls holds one host's RPCs of a step: the Estimate and TrainMany
// args, whose device lists it owns, and the replies, whose buffers the
// client decodes into step after step.
type hostCalls struct {
	estimate  EstimateArgs
	estimates EstimateReply
	next      int // fetchEstimates' cursor into estimates
	train     TrainManyArgs
	trained   TrainManyReply
	ship      bool // train carries the base
}

// stepSpanID is the edge's handler-span ID for one step — the parent of
// every client RPC span the edge opens while executing it. A pure hash, so
// helpers re-derive it instead of threading the Span value around.
func (e *EdgeServer) stepSpanID(step int) telemetry.SpanID {
	return telemetry.DeriveSpanID(telemetry.SpanHandleEdgeStep, step, e.id, -1)
}

// step implements the edge's share of Algorithm 1 for one time step.
// Overlapping calls (a retrying or hostile cloud) run one after the other.
func (e *EdgeServer) step(args *EdgeStepArgs, reply *EdgeStepReply) error {
	e.stepMu.Lock()
	defer e.stepMu.Unlock()
	e.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := e.tel.StartSpan(telemetry.SpanHandleEdgeStep, telemetry.SpanID(args.Span.Parent), args.Step, e.id, -1)
	defer sp.End()
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

	if err := e.resolveHosts(args.Members); err != nil {
		return err
	}
	if err := e.fetchEstimates(args.Step); err != nil {
		return err
	}

	// Edge sampling (Algorithm 3), in place over the fetched estimates, then
	// the engine's decision on its coin stream for (step, edge).
	e.probs = sampling.EdgeSamplingInto(e.machCfg, args.Capacity, e.probs, e.probs)
	e.coins.Seed(det.EdgeCoin(e.seed, args.Step, e.id))
	if err := e.decision.Decide(e.coins, args.Members, e.probs, func(i int) int { return e.sizes[i] }, hfl.AggPlain, 0); err != nil {
		return fmt.Errorf("fed: edge %d: %w", e.id, err)
	}
	picks := e.decision.Picks
	if len(picks) == 0 {
		return e.finishStep(args, 0, reply)
	}
	// Each host's call lists its sampled devices and their weights in member
	// order, which fixes the summation order of its fold.
	for h := range e.calls {
		tm := &e.calls[h].train
		tm.Devices, tm.Weights = tm.Devices[:0], tm.Weights[:0]
	}
	for _, p := range picks {
		tm := &e.calls[e.host[p.Member]].train
		tm.Devices, tm.Weights = append(tm.Devices, p.Device), append(tm.Weights, p.Weight)
	}
	if err := e.train(args); err != nil {
		return err
	}
	return e.finishStep(args, len(picks), reply)
}

// installGlobal decodes the cloud's global model from EdgeStepArgs and makes
// it the edge's current base.
func (e *EdgeServer) installGlobal(args *EdgeStepArgs) error {
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
	global, err := codec.DecodeInto(e.cloudNext, args.Model, baseline)
	if err != nil {
		return fmt.Errorf("fed: edge %d decode global: %w", e.id, err)
	}
	e.cloudView, e.cloudNext, e.cloudID = global, e.cloudView, args.ModelID
	e.params = append(e.params[:0], global...)
	e.stale = false
	e.lastID++
	e.baseID = e.lastID
	return nil
}

// finishStep fills the step reply, with the edge model encoded only when the
// cloud asked for it.
func (e *EdgeServer) finishStep(args *EdgeStepArgs, sampled int, reply *EdgeStepReply) error {
	e.tel.Observe(telemetry.HistEdgeSampled, int64(sampled))
	reply.Model, reply.HasModel, reply.Sampled = codec.Blob{Data: reply.Model.Data[:0]}, false, sampled
	if !args.WantModel {
		return nil
	}
	if err := e.ensureParams(args.Step); err != nil {
		return err
	}
	baseline, baseID := e.cloudView, e.cloudID
	if baseline != nil && len(baseline) != len(e.params) {
		baseline, baseID = nil, 0
	}
	var ef []float64
	if args.Scheme == codec.SchemeInt8 {
		if len(e.efReply) != len(e.params) {
			e.efReply = make([]float64, len(e.params))
		}
		ef = e.efReply
	}
	blob, err := codec.AppendEncode(reply.Model.Data[:0], args.Scheme, e.params, baseline, baseID, ef)
	if err != nil {
		return fmt.Errorf("fed: edge %d encode model: %w", e.id, err)
	}
	reply.Model, reply.HasModel = blob, true
	return nil
}

// ensureParams makes e.params authoritative again after a host-side base
// advance, by fetching the bits back (always lossless). step labels the
// fetch's RPC span with the step it serves.
func (e *EdgeServer) ensureParams(step int) error {
	if !e.stale {
		return nil
	}
	rep := &e.baseReply
	e.baseArgs = GetBaseArgs{Edge: e.id, ID: e.baseID, Span: e.hostSpan(telemetry.SpanRPCGetBase, step, -1)}
	if err := e.callHost(step, telemetry.SpanRPCGetBase, -1, e.staleAddr, "Device.GetBase", &e.baseArgs, rep); err != nil {
		return fmt.Errorf("fed: edge %d fetch base %d from %s: %w", e.id, e.baseID, e.staleAddr, err)
	}
	if rep.Model.Count != len(e.params) {
		return fmt.Errorf("fed: edge %d: host %s returned a base of %d params, want %d", e.id, e.staleAddr, rep.Model.Count, len(e.params))
	}
	params, err := codec.DecodeInto(e.params, rep.Model, nil)
	if err != nil {
		return fmt.Errorf("fed: edge %d decode base %d: %w", e.id, e.baseID, err)
	}
	e.uploads.Add(1)
	e.params, e.stale = params, false
	return nil
}

// fanOut sends a batch of RPCs, each on its own client, then reads their
// replies in call order, and reports their errors aligned with the batch.
// Its buffers serve batch after batch.
type fanOut struct {
	clients []*client // per call: the client holding its request, or nil
	replies []wireMsg
	spans   []telemetry.Span
	errs    []error
}

// start readies f for a batch of n calls.
func (f *fanOut) start(n int) {
	f.clients, f.replies, f.spans, f.errs = zeroed(f.clients, n), zeroed(f.replies, n), zeroed(f.spans, n), zeroed(f.errs, n)
}

// call sends call i of the batch: method on c, timed by sp until wait reads
// its reply.
func (f *fanOut) call(i int, c *client, method string, args, reply wireMsg, sp telemetry.Span) {
	f.spans[i] = sp
	if f.errs[i] = c.send(method, args); f.errs[i] == nil {
		f.clients[i], f.replies[i] = c, reply
	}
}

// wait reads the replies of the calls sent, in call order, ending each
// call's span, and returns the batch's errors; a call never sent keeps the
// one its sender recorded.
//
//machlint:allocfree
func (f *fanOut) wait() []error {
	for i, c := range f.clients {
		if c != nil {
			f.errs[i] = c.recv(f.replies[i])
		}
		f.spans[i].End()
	}
	return f.errs
}

// hostSpan is the SpanContext the i-th host call of kind in step carries in
// its args: the ID of the client span send or callHost opens around it.
func (e *EdgeServer) hostSpan(kind telemetry.SpanKind, step, i int) SpanContext {
	return SpanContext{Parent: uint64(telemetry.DeriveSpanID(kind, step, e.id, i))}
}

// send starts call i of the edge's fan-out: method to the host at addr,
// inside a client span of kind parented to the edge's step span, whose
// device coordinate is i.
func (e *EdgeServer) send(step int, kind telemetry.SpanKind, i int, addr, method string, args, reply wireMsg) {
	c, err := e.client(addr)
	if err != nil {
		e.fan.errs[i] = err
		return
	}
	e.fan.call(i, c, method, args, reply, e.tel.StartSpan(kind, e.stepSpanID(step), step, e.id, i))
}

// callHost makes one RPC to the host at addr and waits for it, inside the
// span send would open; i is the span's device coordinate, -1 outside a
// fan-out.
func (e *EdgeServer) callHost(step int, kind telemetry.SpanKind, i int, addr, method string, args, reply wireMsg) error {
	c, err := e.client(addr)
	if err != nil {
		return err
	}
	sp := e.tel.StartSpan(kind, e.stepSpanID(step), step, e.id, i)
	defer sp.End()
	return c.call(method, args, reply)
}

// fetchEstimates queries the members' UCB estimates into e.probs and their
// dataset sizes into e.sizes, from all hosts at once. Merging walks the hosts
// in order, so the first surfaced error is deterministic, and the members in
// order, each taking its host's next estimate and size. Sizes come from the
// wire: each must be at least 1, and their total must fit an int, before the
// fold weights divide by it.
func (e *EdgeServer) fetchEstimates(step int) error {
	e.fan.start(len(e.addrs))
	for h, addr := range e.addrs {
		hc := &e.calls[h]
		hc.estimate = EstimateArgs{Step: step, Devices: hc.estimate.Devices, Span: e.hostSpan(telemetry.SpanRPCEstimate, step, h)}
		e.send(step, telemetry.SpanRPCEstimate, h, addr, "Device.Estimate", &hc.estimate, &hc.estimates)
	}
	for h, err := range e.fan.wait() {
		hc, addr := &e.calls[h], e.addrs[h]
		if err != nil {
			return fmt.Errorf("fed: edge %d estimate via %s: %w", e.id, addr, err)
		}
		if n, got, sizes := len(hc.estimate.Devices), len(hc.estimates.Estimates), len(hc.estimates.Sizes); got != n || sizes != n {
			return fmt.Errorf("fed: edge %d: host %s returned %d estimates and %d sizes for %d devices", e.id, addr, got, sizes, n)
		}
		hc.next = 0
	}
	e.probs, e.sizes = resize(e.probs, len(e.host)), resize(e.sizes, len(e.host))
	total := 0
	for i, h := range e.host {
		hc := &e.calls[h]
		e.probs[i], e.sizes[i] = hc.estimates.Estimates[hc.next], hc.estimates.Sizes[hc.next]
		hc.next++
		if size := e.sizes[i]; size < 1 || size > math.MaxInt-total {
			return fmt.Errorf("fed: edge %d: host %s returned dataset size %d after a total of %d", e.id, e.addrs[h], size, total)
		}
		total += e.sizes[i]
	}
	return nil
}

// train runs the step's training: it dispatches one TrainMany per sampled
// host, attaching the current base for the hosts that lack it, and adds the
// hosts' weighted update sums onto the base in e.order — or, when one host
// covers the whole sample, lets that host fold the next base and install it
// in place, so no model bytes cross the wire.
func (e *EdgeServer) train(args *EdgeStepArgs) error {
	e.sampled = e.sampled[:0]
	baseID, ship := e.baseID, false
	for h, addr := range e.addrs {
		if hc := &e.calls[h]; len(hc.train.Devices) != 0 {
			e.sampled = append(e.sampled, h)
			hc.ship = e.installed[addr] != baseID
			ship = ship || hc.ship
		}
	}
	advance := len(e.sampled) == 1
	// The base is encoded at most once per step, into e.baseBlob.
	var base codec.Blob
	encodeBase := func() error {
		if base.Data != nil {
			return nil // encoded already
		}
		if err := e.ensureParams(args.Step); err != nil {
			return err
		}
		blob, err := codec.AppendEncode(e.baseBlob[:0], args.Scheme, e.params, nil, 0, nil)
		if err != nil {
			return fmt.Errorf("fed: edge %d encode base: %w", e.id, err)
		}
		base, e.baseBlob = blob, blob.Data
		return nil
	}
	if ship {
		if err := encodeBase(); err != nil {
			return err
		}
	}
	// The host-side advance installs the next base under a fresh ID; the sum
	// path adds the sums onto the base edge-side, so it needs the bits.
	var nextID uint64
	if advance {
		e.lastID++
		nextID = e.lastID
	} else if err := e.ensureParams(args.Step); err != nil {
		return err
	}
	e.fan.start(len(e.addrs))
	for _, h := range e.sampled {
		hc := &e.calls[h]
		hc.train = TrainManyArgs{
			Step: args.Step, Edge: e.id, Devices: hc.train.Devices, Weights: hc.train.Weights, BaseID: baseID, Scheme: args.Scheme,
			Hyper: e.hyper, NextID: nextID, Span: e.hostSpan(telemetry.SpanRPCTrainMany, args.Step, h),
		}
		if hc.ship {
			hc.train.Base, hc.train.HasBase = base, true
		}
		e.send(args.Step, telemetry.SpanRPCTrainMany, h, e.addrs[h], "Device.TrainMany", &hc.train, &hc.trained)
	}
	errs := e.fan.wait()
	var firstErr error
	for _, h := range e.sampled {
		hc, addr := &e.calls[h], e.addrs[h]
		if isUnknownBaseline(errs[h]) && !hc.ship {
			// The host lost its base cache (e.g. a restart): the failed lookup
			// happened before any training, so resend the call with the base
			// attached. A stale edge whose authoritative host forgot the base
			// cannot recover: ensureParams surfaces that as its own error.
			if errs[h] = encodeBase(); errs[h] == nil {
				hc.ship, hc.train.Base, hc.train.HasBase = true, base, true
				errs[h] = e.callHost(args.Step, telemetry.SpanRPCTrainMany, h, addr, "Device.TrainMany", &hc.train, &hc.trained)
			}
		}
		switch {
		case errs[h] == nil && hc.ship:
			e.downloads.Add(1)
			e.installed[addr] = baseID
		case errs[h] != nil && firstErr == nil:
			firstErr = fmt.Errorf("fed: edge %d training via %s: %w", e.id, addr, errs[h])
		}
	}
	if firstErr != nil {
		return firstErr
	}

	if advance {
		addr := e.addrs[e.sampled[0]]
		e.stale, e.staleAddr, e.baseID, e.installed[addr] = true, addr, nextID, nextID
		return nil
	}
	// A fold that fails part way has changed the model all the same, so the
	// base takes a fresh ID either way.
	err := e.foldSums()
	e.lastID++
	e.baseID = e.lastID
	return err
}

// foldSums adds the sampled hosts' weighted update sums onto the edge model
// in place, in e.order. Nothing names the old base's bits on the edge: the
// hosts cache their own copies.
//
//machlint:allocfree
func (e *EdgeServer) foldSums() error {
	for _, h := range e.order {
		hc, addr := &e.calls[h], e.addrs[h]
		switch rep := &hc.trained; {
		case len(hc.train.Devices) == 0:
			continue
		case !rep.HasSum:
			return fmt.Errorf("fed: edge %d: host %s returned no update sum", e.id, addr)
		case rep.Sum.Count != len(e.params):
			return fmt.Errorf("fed: edge %d: host %s summed %d params, want %d", e.id, addr, rep.Sum.Count, len(e.params))
		}
		hostSum, err := codec.DecodeInto(e.hostSum, hc.trained.Sum, nil)
		if err != nil {
			return fmt.Errorf("fed: edge %d decode sum from %s: %w", e.id, addr, err)
		}
		e.hostSum = hostSum
		e.uploads.Add(1)
		tensor.Add(e.params, hostSum)
	}
	return nil
}

// resize returns buf with n elements, growing it append-style when it is
// too small; the elements it keeps hold what they held.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = append(buf[:cap(buf)], make([]T, n-cap(buf))...)
	}
	return buf[:n]
}

// zeroed returns buf resized to n zero values.
func zeroed[T any](buf []T, n int) []T {
	buf = resize(buf, n)
	clear(buf)
	return buf
}

// isUnknownBaseline detects codec.ErrUnknownBaseline both locally and
// across fed's frames, which carry errors as strings.
func isUnknownBaseline(err error) bool {
	return err != nil && (errors.Is(err, codec.ErrUnknownBaseline) ||
		strings.Contains(err.Error(), codec.ErrUnknownBaseline.Error()))
}
