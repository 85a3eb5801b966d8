package fed

import (
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"sync"

	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
	"github.com/mach-fl/mach/internal/tensor"
)

// DeviceServer hosts a set of logical mobile devices: their datasets,
// minibatch streams and — per the paper's device-side design — their gradient
// experience buffers. What a local update mutates is not a device's: like the
// engine, the host lends each training RPC one of the engine's trainers, so
// it holds one model replica per concurrent RPC however many devices it
// hosts (like one simulator machine emulating a fleet).
type DeviceServer struct {
	mu       sync.Mutex
	devices  map[int]*hostedDevice
	calls    uint64 // TrainMany calls checked so far; stamps hostedDevice.call
	book     *sampling.ExperienceBook
	trainers *hfl.TrainerPool
	nParams  int // parameter count of the hosted model architecture

	// edgeBases caches, per edge, the base models installed by SetBase or
	// advanced in place by TrainMany (DESIGN.md §6). At most a couple of
	// vectors per edge are alive at any time: SetBase replaces the edge's
	// whole cache and TrainMany's advance drops the base it consumed.
	edgeBases map[int]map[uint64][]float64
	// efSum holds the per-edge error-feedback buffers for lossy update-sum
	// encodes (codec.SchemeInt8 streams).
	efSum map[int][]float64

	listener net.Listener
	server   *rpc.Server

	// tel counts served RPCs and training activity; nil disables it.
	tel *telemetry.Telemetry
}

// SetTelemetry attaches a telemetry sink (nil detaches). Call before Serve.
func (s *DeviceServer) SetTelemetry(t *telemetry.Telemetry) { s.tel = t }

// hostedDevice is the engine's device: its data and the minibatch stream
// det.DeviceBatch(seed, id), which does not depend on the host serving it.
type hostedDevice struct {
	data *dataset.Dataset
	rng  *rand.Rand
	call uint64 // the last TrainMany call that named the device
}

// NewDeviceServer creates a host for the given logical devices (deviceID →
// dataset). machCfg parameterizes the on-device UCB estimator; seed is the
// run's seed, the same on every host.
func NewDeviceServer(arch hfl.ArchFunc, data map[int]*dataset.Dataset, machCfg sampling.MACHConfig, seed int64) (*DeviceServer, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("fed: device server needs at least one device")
	}
	maxID := 0
	for id, d := range data {
		if d == nil || d.Len() == 0 {
			return nil, fmt.Errorf("fed: device %d has no data", id)
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
		devices:   make(map[int]*hostedDevice, len(data)),
		book:      sampling.NewExperienceBook(maxID+1, machCfg.ExplorationCoef, machCfg.Discount),
		trainers:  hfl.NewTrainerPool(proto, data[maxID]), // any hosted dataset has the sample dims
		nParams:   proto.NumParams(),
		edgeBases: make(map[int]map[uint64][]float64),
		efSum:     make(map[int][]float64),
	}
	for id, d := range data {
		ds.devices[id] = &hostedDevice{data: d, rng: det.NewRand(det.DeviceBatch(seed, id))}
	}
	return ds, nil
}

// Serve starts listening on addr ("host:0" for an ephemeral port) and
// serves RPCs until Close. It returns the bound address.
func (s *DeviceServer) Serve(addr string) (string, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Device", s); err != nil {
		return "", fmt.Errorf("fed: register device service: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("fed: device listen: %w", err)
	}
	s.listener = ln
	s.server = srv
	go acceptLoop(srv, ln)
	return ln.Addr().String(), nil
}

// Close stops the listener.
func (s *DeviceServer) Close() error {
	if s.listener == nil {
		return nil
	}
	return s.listener.Close()
}

func acceptLoop(srv *rpc.Server, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go srv.ServeConn(conn)
	}
}

// Ping implements the liveness RPC.
func (s *DeviceServer) Ping(_ PingArgs, reply *PingReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	reply.Role = "device-host"
	return nil
}

// Estimate returns the devices' current UCB gradient-norm estimates
// (Eq. 15), read under one book lock. Unknown devices yield an error: the
// edge's membership view is stale.
func (s *DeviceServer) Estimate(args EstimateArgs, reply *EstimateReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleEstimate, telemetry.SpanID(args.Span.Parent), args.Step, -1, -1)
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range args.Devices {
		if _, ok := s.devices[id]; !ok {
			return fmt.Errorf("fed: device %d not hosted here", id)
		}
	}
	reply.Estimates = make([]float64, len(args.Devices))
	s.book.UCBEstimatesInto(reply.Estimates, args.Devices, args.Step)
	return nil
}

// SetBase caches an edge's base model under a baseline ID (DESIGN.md §6).
// Installing a base replaces every earlier base of that edge, so the cache
// holds at most one vector per edge between steps.
func (s *DeviceServer) SetBase(args SetBaseArgs, reply *SetBaseReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleSetBase, telemetry.SpanID(args.Span.Parent), -1, args.Edge, -1)
	defer sp.End()
	if args.Model.Count != s.nParams {
		return fmt.Errorf("fed: set base for edge %d: %d params, hosted models have %d", args.Edge, args.Model.Count, s.nParams)
	}
	params, err := codec.Decode(args.Model, nil)
	if err != nil {
		return fmt.Errorf("fed: set base for edge %d: %w", args.Edge, err)
	}
	s.mu.Lock()
	s.edgeBases[args.Edge] = map[uint64][]float64{args.ID: params}
	s.mu.Unlock()
	*reply = SetBaseReply{}
	return nil
}

// GetBase returns the bits of a cached base model, always encoded lossless
// so the caller recovers exactly what the hosted devices train from.
func (s *DeviceServer) GetBase(args GetBaseArgs, reply *GetBaseReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleGetBase, telemetry.SpanID(args.Span.Parent), -1, args.Edge, -1)
	defer sp.End()
	base, err := s.lookupBase(args.Edge, args.ID)
	if err != nil {
		return err
	}
	blob, err := codec.Encode(codec.SchemeDelta, base, nil, 0, nil)
	if err != nil {
		return err
	}
	reply.Model = blob
	return nil
}

func (s *DeviceServer) lookupBase(edge int, id uint64) ([]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	base, ok := s.edgeBases[edge][id]
	if !ok {
		return nil, fmt.Errorf("fed: edge %d base %d not cached here: %w", edge, id, codec.ErrUnknownBaseline)
	}
	return base, nil
}

// TrainMany runs local updating on every listed device from the cached base
// named by BaseID and returns the summed update Σ(w_m − base), accumulated
// in args.Devices order, which fixes the float order of the edge's
// aggregation. With args.Advance the host instead folds the sum into the
// next base itself (base + Σ/|Devices|), installs it under NextID and ships
// no vector at all. Devices train sequentially: they share the host's
// compute the way one simulator machine emulates a fleet, and cross-host
// parallelism comes from the edge's concurrent dispatch. Concurrent calls
// (one per edge) touch distinct devices, since a device attaches to exactly
// one edge per step (Eq. 1), so each device's RNG serves one call at a time.
func (s *DeviceServer) TrainMany(args TrainManyArgs, reply *TrainManyReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleTrainMany, telemetry.SpanID(args.Span.Parent), args.Step, args.Edge, -1)
	defer sp.End()
	if err := args.Scheme.Validate(); err != nil {
		return err
	}
	// The hyperparameters arrive from the wire and size the trainer's
	// buffers, so they are checked before the borrow.
	hyper := args.Hyper
	if len(args.Devices) == 0 || hyper.LocalEpochs <= 0 || hyper.BatchSize <= 0 || hyper.LearningRate <= 0 {
		return fmt.Errorf("fed: TrainMany of %d devices with hyperparameters %+v", len(args.Devices), hyper)
	}
	base, err := s.lookupBase(args.Edge, args.BaseID)
	if err != nil {
		return err
	}
	if err := s.checkDevices(args.Devices); err != nil {
		return err
	}
	tr := s.trainers.Borrow(hyper.BatchSize)
	defer s.trainers.Release(tr)
	epochs := hyper.LocalEpochs
	sum := make([]float64, len(base))
	var trained []float64 // the RPC's one read-out buffer, reused per device
	norms := make([]float64, len(args.Devices)*epochs)
	reply.SqNorms = make([][]float64, len(args.Devices))
	for i, id := range args.Devices {
		s.mu.Lock()
		dev := s.devices[id]
		s.mu.Unlock()
		reply.SqNorms[i] = norms[i*epochs : (i+1)*epochs]
		if err := tr.LocalUpdate(base, dev.data, dev.rng, hyper.LearningRate, reply.SqNorms[i]); err != nil {
			return fmt.Errorf("fed: device %d: %w", id, err)
		}
		trained = tr.ParamsInto(trained)
		tensor.AxpyDiff(sum, 1, trained, base) // sum += trained − base, exactly
	}
	s.tel.Add(telemetry.CounterDevicesTrained, int64(len(args.Devices)))
	// The RPC's experiences go in under one book lock (Algorithm 2, line 1);
	// a failed RPC, which fails the run, records none.
	s.book.ObserveMany(args.Devices, reply.SqNorms)

	if args.Advance {
		next := nextBase(base, sum, len(args.Devices))
		s.mu.Lock()
		bases := s.edgeBases[args.Edge]
		delete(bases, args.BaseID)
		bases[args.NextID] = next
		s.mu.Unlock()
		return nil
	}

	var ef []float64
	if args.Scheme == codec.SchemeInt8 {
		s.mu.Lock()
		ef = s.efSum[args.Edge]
		if len(ef) != len(sum) {
			ef = make([]float64, len(sum))
			s.efSum[args.Edge] = ef
		}
		s.mu.Unlock()
	}
	blob, err := codec.Encode(args.Scheme, sum, nil, 0, ef)
	if err != nil {
		return err
	}
	reply.Sum = blob
	reply.HasSum = true
	return nil
}

// checkDevices fails a TrainMany call that names a device this host does not
// hold, or one device twice, before anything trains: a repeat would train
// the device twice from one base, advancing its minibatch stream twice and
// recording two windows in the book. Each call stamps the devices it names
// with its own number, so the check allocates nothing.
func (s *DeviceServer) checkDevices(ids []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	for _, id := range ids {
		dev, ok := s.devices[id]
		if !ok {
			return fmt.Errorf("fed: device %d not hosted here", id)
		}
		if dev.call == s.calls {
			return fmt.Errorf("fed: device %d named twice in one TrainMany call", id)
		}
		dev.call = s.calls
	}
	return nil
}

// CloudRound folds the hosted devices' experience buffers (Algorithm 2,
// lines 2-4).
func (s *DeviceServer) CloudRound(args CloudRoundArgs, reply *CloudRoundReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleCloudRound, telemetry.SpanID(args.Span.Parent), args.Step, -1, -1)
	defer sp.End()
	s.book.CloudRound(args.Step)
	*reply = CloudRoundReply{}
	return nil
}
