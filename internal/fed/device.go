package fed

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
)

// DeviceServer hosts a set of logical mobile devices: their datasets and —
// per the paper's device-side design — their gradient experience buffers.
// What a local update mutates is not a device's: like the engine, the host
// lends each training RPC one of the engine's trainers, which draws each
// update's minibatches at its det.DeviceBatch key, so it holds one model
// replica per concurrent RPC however many devices it hosts (like one
// simulator machine emulating a fleet), and any host holding a device's data
// trains it to the same bits.
type DeviceServer struct {
	// data is the device table, indexed by device ID, nil where a device is
	// not hosted here; fixed at construction, it is read without a lock.
	data     []*dataset.Dataset
	seed     int64 // the run's seed, the same on every host
	book     *sampling.ExperienceBook
	trainers *hfl.TrainerPool
	nParams  int // parameter count of the hosted model architecture
	maxBatch int // the largest minibatch whose input fits in maxFrame bytes

	mu    sync.Mutex // guards calls, named and edges
	calls uint64     // TrainMany calls checked so far; stamps named
	named []uint64   // per device ID, the last TrainMany call that named it

	// edges holds what the host keeps for each edge between its calls: the
	// edge's cached base (DESIGN.md §6) and its calls' buffers.
	edges map[int]*hostedEdge

	listener *rpcListener

	// tel counts served RPCs and training activity; nil disables it.
	tel *telemetry.Telemetry
}

// SetTelemetry attaches a telemetry sink (nil detaches). Call before Serve.
func (s *DeviceServer) SetTelemetry(t *telemetry.Telemetry) { s.tel = t }

// NewDeviceServer creates a host for the given logical devices (deviceID →
// dataset). machCfg parameterizes the on-device UCB estimator; seed is the
// run's seed, the same on every host.
func NewDeviceServer(arch hfl.ArchFunc, data map[int]*dataset.Dataset, machCfg sampling.MACHConfig, seed int64) (*DeviceServer, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("fed: device server needs at least one device")
	}
	maxID := 0
	for id, d := range data {
		if id < 0 || d == nil || d.Len() == 0 {
			return nil, fmt.Errorf("fed: device %d: negative ID or no data", id)
		}
		if id > maxID {
			maxID = id
		}
	}
	proto, err := arch(rand.New(rand.NewSource(det.ModelInit(seed))))
	if err != nil {
		return nil, fmt.Errorf("fed: build hosted model: %w", err)
	}
	ds := &DeviceServer{
		data:     make([]*dataset.Dataset, maxID+1),
		seed:     seed,
		named:    make([]uint64, maxID+1),
		book:     sampling.NewExperienceBook(maxID+1, machCfg.ExplorationCoef, machCfg.Discount),
		trainers: hfl.NewTrainerPool(proto, data[maxID]), // any hosted dataset has the sample dims
		nParams:  proto.NumParams(),
		maxBatch: maxFrame / 8 / max(1, data[maxID].SampleLen()),
		edges:    make(map[int]*hostedEdge),
	}
	for id, d := range data {
		ds.data[id] = d
	}
	return ds, nil
}

// Serve starts listening on addr ("host:0" for an ephemeral port) and
// serves RPCs until Close. It returns the bound address.
func (s *DeviceServer) Serve(addr string) (string, error) {
	ln, err := listen(s, "Device", addr)
	if err != nil {
		return "", fmt.Errorf("fed: device listen: %w", err)
	}
	s.listener = ln
	return ln.Addr().String(), nil
}

// Close stops the listener and stops serving the connections it accepted.
func (s *DeviceServer) Close() error {
	if s.listener == nil {
		return nil
	}
	return s.listener.Close()
}

func (s *DeviceServer) serve(m *msgs, method []byte, body *wirer) (wireMsg, error) {
	switch string(method) {
	case "Device.Ping":
		return handle(body, &PingArgs{}, &m.ping, s.ping)
	case "Device.Estimate":
		return handle(body, &m.estimate, &m.estimates, s.estimate)
	case "Device.TrainMany":
		return handle(body, &m.train, &m.trained, s.trainMany)
	case "Device.GetBase":
		return handle(body, &m.getBase, &m.base, s.getBase)
	case "Device.CloudRound":
		return handle(body, &m.round, &CloudRoundReply{}, s.cloudRound)
	}
	return nil, fmt.Errorf("fed: device host serves no method %q", method)
}

// ping is the liveness RPC.
func (s *DeviceServer) ping(_ *PingArgs, reply *PingReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	reply.Role = "device-host"
	return nil
}

// estimate returns the devices' current UCB gradient-norm estimates
// (Eq. 15), read under one book lock, and their dataset sizes. Unknown
// devices yield an error before anything is sized: the edge's membership
// view is stale.
func (s *DeviceServer) estimate(args *EstimateArgs, reply *EstimateReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleEstimate, telemetry.SpanID(args.Span.Parent), args.Step, -1, -1)
	defer sp.End()
	for _, id := range args.Devices {
		if !s.hosts(id) {
			return fmt.Errorf("fed: device %d not hosted here", id)
		}
	}
	reply.Sizes = resize(reply.Sizes, len(args.Devices))
	for i, id := range args.Devices {
		reply.Sizes[i] = s.data[id].Len()
	}
	reply.Estimates = resize(reply.Estimates, len(args.Devices))
	s.book.UCBEstimatesInto(reply.Estimates, args.Devices, args.Step)
	return nil
}

// hosts reports whether device id, an ID from the wire, is hosted here.
func (s *DeviceServer) hosts(id int) bool {
	return id >= 0 && id < len(s.data) && s.data[id] != nil
}

// hostedEdge is what a host keeps for one edge: one cached base, named by one
// ID, and the buffers of the edge's calls. A base the call carries decodes
// into the vector of the base it replaces, and an advance swaps its fold in:
// the old ID retires before its vector is reused. mu serializes the edge's
// calls, which the edge makes one at a time anyway, so that no call reads a
// vector another one rewrites.
type hostedEdge struct {
	mu      sync.Mutex
	id      uint64 // base's ID; 0 when none resolves
	base    []float64
	sum     []float64   // the fold of the call in progress; an advance swaps it with base
	ef      []float64   // error feedback for the edge's lossy update-sum encodes
	picks   []hfl.Pick  // the call's devices and weights, as the edge task takes them
	norms   []float64   // the devices' gradient-norm windows, back to back
	windows [][]float64 // per device: its window of norms
}

// edge returns the host's state for edge id, made on first use.
func (s *DeviceServer) edge(id int) *hostedEdge {
	s.mu.Lock()
	defer s.mu.Unlock()
	he := s.edges[id]
	if he == nil {
		he = &hostedEdge{picks: make([]hfl.Pick, 0, len(s.data))} // room for every hosted device
		s.edges[id] = he
	}
	return he
}

func (he *hostedEdge) lookup(edge int, id uint64) ([]float64, error) {
	if id == 0 || id != he.id {
		return nil, fmt.Errorf("fed: edge %d base %d not cached here: %w", edge, id, codec.ErrUnknownBaseline)
	}
	return he.base, nil
}

// trainBase is the base a TrainMany trains from: the cached one it names, or
// the one it carries. That one is decoded into a vector of the host's own,
// never keeping the blob (it aliases the request frame), and installed under
// BaseID.
func (s *DeviceServer) trainBase(he *hostedEdge, args *TrainManyArgs) ([]float64, error) {
	if !args.HasBase {
		return he.lookup(args.Edge, args.BaseID)
	}
	if args.Base.Count != s.nParams {
		return nil, fmt.Errorf("fed: base for edge %d: %d params, hosted models have %d", args.Edge, args.Base.Count, s.nParams)
	}
	he.id = 0
	base, err := codec.DecodeInto(he.base, args.Base, nil)
	if err != nil {
		return nil, fmt.Errorf("fed: base for edge %d: %w", args.Edge, err)
	}
	he.id, he.base = args.BaseID, base
	return base, nil
}

// getBase returns the bits of a cached base model, always encoded lossless
// so the caller recovers exactly what the hosted devices train from.
func (s *DeviceServer) getBase(args *GetBaseArgs, reply *GetBaseReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleGetBase, telemetry.SpanID(args.Span.Parent), -1, args.Edge, -1)
	defer sp.End()
	he := s.edge(args.Edge)
	he.mu.Lock()
	defer he.mu.Unlock()
	base, err := he.lookup(args.Edge, args.ID)
	if err != nil {
		return err
	}
	blob, err := codec.AppendEncode(reply.Model.Data[:0], codec.SchemeDelta, base, nil, 0, nil)
	if err != nil {
		return err
	}
	reply.Model = blob
	return nil
}

// trainMany runs the engine's edge task, hfl.Trainer.TrainFold, on the listed
// devices from the base named by BaseID — cached, or installed first from
// args.Base when the call carries it — folding each trained model θ_m at its
// weight w_m in args.Devices order, which fixes the float order of the edge's
// aggregation: the reply's update sum Σ w_m·(θ_m − base), or with
// args.NextID the next base Σ w_m·θ_m from zero, exactly the engine's
// AggPlain fold, which the host installs under NextID, shipping no vector at
// all. Devices train sequentially: they share the host's compute the way one
// simulator machine emulates a fleet, and cross-host parallelism comes from
// the edge's concurrent dispatch. Each update draws at its (run, step,
// device) key, so a call retried, or sent to another host holding the same
// data, trains to the same bits.
func (s *DeviceServer) trainMany(args *TrainManyArgs, reply *TrainManyReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleTrainMany, telemetry.SpanID(args.Span.Parent), args.Step, args.Edge, -1)
	defer sp.End()
	if err := args.Scheme.Validate(); err != nil {
		return err
	}
	if err := s.checkHyper(args); err != nil {
		return err
	}
	if err := s.checkDevices(args.Devices); err != nil {
		return err
	}
	he := s.edge(args.Edge)
	he.mu.Lock()
	defer he.mu.Unlock()
	base, err := s.trainBase(he, args)
	if err != nil {
		return err
	}
	tr := s.trainers.Borrow(args.Hyper.BatchSize)
	defer s.trainers.Release(tr)
	he.sum = zeroed(he.sum, len(base))
	foldBase := base
	if args.NextID != 0 {
		foldBase = nil
	}
	epochs := args.Hyper.LocalEpochs
	he.picks = resize(he.picks, len(args.Devices))
	he.norms = resize(he.norms, len(args.Devices)*epochs)
	he.windows = resize(he.windows, len(args.Devices))
	for i, id := range args.Devices {
		he.picks[i] = hfl.Pick{Device: id, Weight: args.Weights[i], Upload: true}
		he.windows[i] = he.norms[i*epochs : (i+1)*epochs]
	}
	if i, err := tr.TrainFold(he.sum, base, foldBase, s.data, he.picks, s.seed, args.Step, args.Hyper.LearningRate, he.norms); err != nil {
		return fmt.Errorf("fed: device %d: %w", args.Devices[i], err)
	}
	s.tel.Add(telemetry.CounterDevicesTrained, int64(len(args.Devices)))
	// The RPC's experiences go in under one book lock (Algorithm 2, line 1);
	// a failed RPC, which fails the run, records none.
	s.book.ObserveMany(args.Devices, he.windows)

	if args.NextID != 0 {
		he.id, he.base, he.sum = args.NextID, he.sum, he.base
		reply.Sum, reply.HasSum = codec.Blob{Data: reply.Sum.Data[:0]}, false
		return nil
	}
	var ef []float64
	if args.Scheme == codec.SchemeInt8 {
		if len(he.ef) != len(he.sum) {
			he.ef = make([]float64, len(he.sum))
		}
		ef = he.ef
	}
	blob, err := codec.AppendEncode(reply.Sum.Data[:0], args.Scheme, he.sum, nil, 0, ef)
	if err != nil {
		return err
	}
	reply.Sum, reply.HasSum = blob, true
	return nil
}

// checkHyper refuses hyperparameters and fold weights no edge sends before
// anything is sized or trained by them: they arrive from the wire, and as in
// the frame decoder no wire value sizes a buffer past maxFrame bytes — here
// the devices' gradient-norm windows (devices·LocalEpochs floats) and the
// trainer's minibatch input — and each device needs a finite positive weight.
func (s *DeviceServer) checkHyper(args *TrainManyArgs) error {
	const maxFloats = maxFrame / 8
	devices, h := len(args.Devices), args.Hyper
	ok := devices > 0 && h.LocalEpochs > 0 && h.LocalEpochs <= maxFloats/devices && h.BatchSize > 0 &&
		h.BatchSize <= s.maxBatch && h.LearningRate > 0 && !math.IsInf(h.LearningRate, 1) && len(args.Weights) == devices
	for _, w := range args.Weights {
		ok = ok && w > 0 && !math.IsInf(w, 1)
	}
	if !ok {
		return fmt.Errorf("fed: TrainMany of %d devices with hyperparameters %+v and %d weights", devices, h, len(args.Weights))
	}
	return nil
}

// checkDevices fails a TrainMany call that names a device this host does not
// hold, or one device twice, before anything trains: a repeat would train
// the device twice from one base and record two windows in the book. Each
// call stamps the devices it names with its own number, so the check
// allocates nothing.
func (s *DeviceServer) checkDevices(ids []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	for _, id := range ids {
		if !s.hosts(id) {
			return fmt.Errorf("fed: device %d not hosted here", id)
		}
		if s.named[id] == s.calls {
			return fmt.Errorf("fed: device %d named twice in one TrainMany call", id)
		}
		s.named[id] = s.calls
	}
	return nil
}

// cloudRound folds the hosted devices' experience buffers (Algorithm 2,
// lines 2-4).
func (s *DeviceServer) cloudRound(args *CloudRoundArgs, _ *CloudRoundReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleCloudRound, telemetry.SpanID(args.Span.Parent), args.Step, -1, -1)
	defer sp.End()
	s.book.CloudRound(args.Step)
	return nil
}
