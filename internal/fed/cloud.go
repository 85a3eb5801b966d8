package fed

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/telemetry"
)

// CloudConfig parameterizes the coordinator.
type CloudConfig struct {
	// Steps is T, CloudInterval is T_g (Eq. 6).
	Steps         int
	CloudInterval int
	// Participation sets the per-edge capacity K_n =
	// Participation·|M|/|N|, as in the simulator.
	Participation float64
	// EvalEvery evaluates the global model every EvalEvery steps
	// (0 = every cloud round).
	EvalEvery int
	// Seed is the run's seed; the cloud draws the initial global model from it.
	Seed int64
	// Codec selects the wire format for every model transfer of the run
	// (DESIGN.md §6). The zero value, codec.SchemeDelta, is lossless: it
	// reproduces the uncompressed raw scheme's learning trajectory bit for
	// bit while moving far fewer bytes.
	Codec codec.Scheme
}

// Validate reports whether the config is usable.
func (c CloudConfig) Validate() error {
	switch {
	case c.Steps <= 0 || c.CloudInterval <= 0:
		return fmt.Errorf("fed: cloud steps/interval %d/%d must be positive", c.Steps, c.CloudInterval)
	case c.Participation <= 0 || c.Participation > 1:
		return fmt.Errorf("fed: participation %v outside (0,1]", c.Participation)
	case c.EvalEvery < 0:
		return fmt.Errorf("fed: eval interval %d negative", c.EvalEvery)
	}
	return c.Codec.Validate()
}

// Cloud is the coordinator: hfl's cloud half — the mobility plane, the
// Eq. (6) reduce every T_g steps and the evaluator — driving the edge
// servers' time steps over RPC and redistributing the global model.
type Cloud struct {
	cfg  CloudConfig
	core *hfl.Cloud

	// prevView/prevID track the last global the cloud distributed, exactly
	// as the edges decoded it (for lossless schemes that is the global
	// itself); the next distribution is encoded as a delta against it and
	// edge replies are decoded against it. efGlobal is the error-feedback
	// buffer for lossy global broadcasts.
	prevView []float64
	prevID   uint64
	lastID   uint64
	efGlobal []float64
	// spare is the vector the next distribution's view is written into
	// before it swaps with prevView; globalBuf holds its encoded payload.
	spare     []float64
	globalBuf []byte

	edges       []*client
	deviceHosts []*client

	// comm counts the bytes crossing the cloud's own connections, both
	// directions; transfers the model-bearing messages among them.
	comm      atomic.Int64
	transfers atomic.Int64

	// tel records RPC fan-out and wire bytes; nil disables it. The core
	// records steps, cloud rounds and evaluations into the same sink.
	tel *telemetry.Telemetry
}

// SetTelemetry attaches a telemetry sink (nil detaches). Call before Run.
func (c *Cloud) SetTelemetry(t *telemetry.Telemetry) {
	c.tel = t
	c.core.SetTelemetry(t)
}

// NewCloud dials the edge servers and device hosts and initializes the
// global model from arch. Every connection counts its wire bytes into the
// cloud's communication counters (CommStats).
func NewCloud(cfg CloudConfig, arch hfl.ArchFunc, src mobility.StepSource, test *dataset.Dataset, edgeAddrs, deviceHostAddrs []string) (*Cloud, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	core, err := hfl.NewCloud(hfl.Config{
		Steps: cfg.Steps, CloudInterval: cfg.CloudInterval, Participation: cfg.Participation,
		EvalEvery: cfg.EvalEvery, Seed: cfg.Seed,
	}, arch, src, test)
	if err != nil {
		return nil, fmt.Errorf("fed: cloud: %w", err)
	}
	if nEdges, _, _ := src.Dims(); len(edgeAddrs) != nEdges {
		return nil, fmt.Errorf("fed: %d edge addresses for %d scheduled edges", len(edgeAddrs), nEdges)
	}
	c := &Cloud{cfg: cfg, core: core}
	dial := func(dst *[]*client, role string, addrs []string) error {
		for _, addr := range addrs {
			cl, err := dialCounting(addr, &c.comm, &c.comm)
			if err != nil {
				return fmt.Errorf("fed: cloud dial %s %s: %w", role, addr, err)
			}
			*dst = append(*dst, cl)
		}
		return nil
	}
	err = dial(&c.edges, "edge", edgeAddrs)
	if err == nil {
		err = dial(&c.deviceHosts, "device host", deviceHostAddrs)
	}
	if err != nil {
		// Close what was dialed: the caller gets no Cloud to close.
		return nil, errors.Join(err, c.Close())
	}
	return c, nil
}

// Close drops all connections, reporting the first failure.
func (c *Cloud) Close() error {
	var firstErr error
	for _, cl := range slices.Concat(c.edges, c.deviceHosts) {
		if err := cl.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// GlobalParams returns a copy of the current global model parameters.
func (c *Cloud) GlobalParams() []float64 { return c.core.GlobalParams() }

// CommStats collects the run's measured communication volume: the cloud's
// own connection counters plus each edge's device-facing counters. The
// cloud counters are snapshotted before the collection RPCs so the
// collection itself is not measured.
func (c *Cloud) CommStats() (hfl.CommStats, error) {
	stats := hfl.CommStats{
		CloudBytes:     c.comm.Load(),
		CloudTransfers: c.transfers.Load(),
		Measured:       true,
	}
	for n, cl := range c.edges {
		var rep CommReply
		if err := cl.call("Edge.Comm", &CommArgs{}, &rep); err != nil {
			return hfl.CommStats{}, fmt.Errorf("fed: comm stats from edge %d: %w", n, err)
		}
		stats.DeviceUplinkBytes += rep.UplinkBytes
		stats.DeviceDownlinkBytes += rep.DownlinkBytes
		stats.DeviceUploads += rep.Uploads
		stats.DeviceDownloads += rep.Downloads
	}
	return stats, nil
}

// Run drives the full training (Algorithm 1 over RPC) and returns the
// accuracy history.
func (c *Cloud) Run() (*metrics.History, error) {
	hist := &metrics.History{}
	resetParams := true // first step seeds every edge with the global model
	// One Edge.Step per edge each step, whose args, replies and decoded
	// models are reused step after step.
	var fan fanOut
	args := make([]EdgeStepArgs, len(c.edges))
	replies := make([]EdgeStepReply, len(c.edges))
	edgeParams := make([][]float64, len(c.edges))

	prevComm := c.comm.Load()
	for t := 0; t < c.cfg.Steps; t++ {
		// The member slices stay valid until the next BeginStep, and every
		// request has been written by then, so they go to the RPC layer
		// uncopied.
		if err := c.core.BeginStep(t); err != nil {
			return nil, fmt.Errorf("fed: step %d: %w", t, err)
		}
		// stepSpan parents every span the cloud opens this step. It is a pure
		// hash of (kind, step), so it is computed unconditionally — on and off
		// runs execute the same code and put the same bytes on the wire.
		stepSpan := telemetry.DeriveSpanID(telemetry.SpanStep, t, -1, -1)
		cloudRound := c.core.CloudRound(t)
		var blob codec.Blob
		var blobID uint64
		if resetParams {
			var err error
			blob, blobID, err = c.encodeGlobal()
			if err != nil {
				return nil, fmt.Errorf("fed: step %d encode global: %w", t, err)
			}
		}
		fan.start(len(c.edges))
		for n, cl := range c.edges {
			args[n] = EdgeStepArgs{
				Step:      t,
				Members:   c.core.Members(n),
				Capacity:  c.core.Capacity(),
				Scheme:    c.cfg.Codec,
				WantModel: cloudRound,
				Span:      SpanContext{Parent: uint64(telemetry.DeriveSpanID(telemetry.SpanRPCEdgeStep, t, n, -1))},
			}
			if resetParams {
				args[n].Model, args[n].ModelID, args[n].HasModel = blob, blobID, true
				c.transfers.Add(1)
			}
			fan.call(n, cl, "Edge.Step", &args[n], &replies[n], c.tel.StartSpan(telemetry.SpanRPCEdgeStep, stepSpan, t, n, -1))
		}
		for n, err := range fan.wait() {
			switch {
			case err != nil || !cloudRound:
			case !replies[n].HasModel:
				err = fmt.Errorf("reply carries no model at a cloud round")
			default:
				edgeParams[n], err = c.decodeEdgeModel(edgeParams[n], replies[n].Model)
				c.transfers.Add(1)
			}
			if err != nil {
				return nil, fmt.Errorf("fed: step %d edge %d: %w", t, n, err)
			}
		}
		resetParams = cloudRound

		if cloudRound {
			c.core.Reduce(t, edgeParams)
			for i, host := range c.deviceHosts {
				var rep CloudRoundReply
				crArgs := CloudRoundArgs{
					Step: t + 1,
					Span: SpanContext{Parent: uint64(telemetry.DeriveSpanID(telemetry.SpanRPCCloudRound, t, -1, i))},
				}
				sp := c.tel.StartSpan(telemetry.SpanRPCCloudRound, stepSpan, t, -1, i)
				err := host.call("Device.CloudRound", &crArgs, &rep)
				sp.End()
				if err != nil {
					return nil, fmt.Errorf("fed: cloud round on host %d: %w", i, err)
				}
			}
		}
		p, evaluated, err := c.core.EndStep(t)
		if err != nil {
			return nil, fmt.Errorf("fed: step %d: %w", t, err)
		}
		if evaluated {
			hist.Add(p)
		}
		if comm := c.comm.Load(); comm != prevComm {
			c.tel.Add(telemetry.CounterCloudBytes, comm-prevComm)
			prevComm = comm
		}
	}
	return hist, nil
}

// encodeGlobal packs the current global model for distribution: a delta
// against the previously distributed global when there is one, baseline-free
// on the first distribution. It returns the blob and the new global's ID and
// records the receivers' view of it for the next round trip.
func (c *Cloud) encodeGlobal() (codec.Blob, uint64, error) {
	global := c.core.AppendGlobal(c.spare[:0])
	var baseline []float64
	var baseID uint64
	if len(c.prevView) == len(global) && c.prevID != 0 {
		baseline, baseID = c.prevView, c.prevID
	}
	var ef []float64
	if c.cfg.Codec == codec.SchemeInt8 {
		if len(c.efGlobal) != len(global) {
			c.efGlobal = make([]float64, len(global))
		}
		ef = c.efGlobal
	}
	blob, err := codec.AppendEncode(c.globalBuf[:0], c.cfg.Codec, global, baseline, baseID, ef)
	if err != nil {
		return codec.Blob{}, 0, err
	}
	c.globalBuf = blob.Data
	// Record exactly what receivers will hold after decoding, since edge
	// replies come back encoded against it: the global itself bit for bit
	// under a lossless scheme, the cloud's own decode under a lossy one.
	view := global
	if !c.cfg.Codec.Lossless() {
		if view, err = codec.DecodeInto(global, blob, baseline); err != nil {
			return codec.Blob{}, 0, err
		}
	}
	c.lastID++
	c.prevView, c.spare, c.prevID = view, c.prevView, c.lastID
	return blob, c.lastID, nil
}

// decodeEdgeModel unpacks an edge's model reply into dst, grown as needed.
// The reply is encoded against the last global the cloud distributed (or
// baseline-free before the first distribution reached that edge) and has
// that global's parameter count.
func (c *Cloud) decodeEdgeModel(dst []float64, blob codec.Blob) ([]float64, error) {
	var baseline []float64
	if blob.Baseline != 0 {
		if blob.Baseline != c.prevID {
			return nil, fmt.Errorf("fed: edge model against global %d, cloud last sent %d: %w",
				blob.Baseline, c.prevID, codec.ErrUnknownBaseline)
		}
		baseline = c.prevView
	}
	if blob.Count != len(c.prevView) {
		return nil, fmt.Errorf("fed: edge model of %d params, global has %d", blob.Count, len(c.prevView))
	}
	return codec.DecodeInto(dst, blob, baseline)
}
