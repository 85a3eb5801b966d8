// Package fed runs the HFL system of internal/hfl as a real distributed
// deployment: device hosts, edge servers and a cloud coordinator are separate
// processes (or goroutines in tests) communicating over TCP with net/rpc and
// gob encoding.
//
// The roles mirror the paper's architecture (§II):
//
//   - a device host (DeviceServer) owns a set of logical mobile devices —
//     their local datasets, their minibatch streams, and, crucially, their
//     gradient experience buffers (Algorithm 2 runs ON the device, which is
//     what makes the experience travel with the device across edges);
//   - an edge server (EdgeServer) executes one edge's share of a time step:
//     it queries its current members' G̃² estimates, computes the sampling
//     strategy (Algorithm 3), dispatches local training, and adds the plain
//     mean of the returned updates, Σ(w_m − base)/|sample|, to its model
//     (equal weights, not Eq. 5's 1/q);
//   - the cloud (Cloud) owns the mobility schedule B^t, drives time steps,
//     aggregates edge models every T_g steps (Eq. 6), and redistributes the
//     global model.
//
// # One protocol, four wire formats
//
// The cloud's CloudConfig.Codec selects the codec.Scheme of every model
// transfer of the run (DESIGN.md §6): delta (the lossless default), raw
// (8 B/param, no baseline), float32 or int8. Every scheme rides the same
// messages — models move as codec.Blob payloads — and the same three
// structural optimizations:
//
//   - baseline caching: Device.SetBase installs an edge's base model on a
//     host once; Device.TrainMany then names it by ID for all of the host's
//     sampled devices;
//   - host-side update sums: TrainMany returns the single summed update
//     Σ(w_m − base) of its devices instead of per-device models, and when
//     one host covers the edge's whole sample it advances the base in place
//     so that no model bytes cross the wire at all (the edge recovers the
//     bits later with Device.GetBase when it actually needs them);
//   - on-demand edge models: EdgeStepReply carries the edge model only when
//     the cloud asks (WantModel, at cloud rounds), and the cloud ships the
//     global as a delta against the previous global it distributed.
//
// Edge aggregation is the same float operations in the same order under
// every scheme (per-host partial sums of w_m − base in sampled order, hosts
// reduced in sorted-address order, then base + Σ/|sample|), so the lossless
// schemes, raw and delta, produce bit-identical evaluation histories. The
// deployment produces the same algorithm as the in-process simulator; an
// integration test trains the same tiny task both ways and checks that the
// distributed run learns.
package fed

import "github.com/mach-fl/mach/internal/codec"

// SpanContext carries the caller's span ID in RPC args so the server-side
// handler span nests under it in the stitched trace. Span IDs are pure
// functions of (kind, step, edge, device) — telemetry.DeriveSpanID — so
// callers populate the field unconditionally: the bytes on the wire do not
// depend on whether either end records spans, which keeps runs bit-identical
// with tracing on or off.
type SpanContext struct {
	Parent uint64
}

// Hyper carries the local-update hyperparameters of Eq. (4) to devices.
type Hyper struct {
	LocalEpochs  int
	BatchSize    int
	LearningRate float64
}

// EstimateArgs asks a device host for the current UCB gradient-norm
// estimates G̃² of some of its devices (Eq. 15).
type EstimateArgs struct {
	Step    int
	Devices []int
	Span    SpanContext
}

// EstimateReply returns the estimates aligned with EstimateArgs.Devices.
type EstimateReply struct {
	Estimates []float64
}

// SetBaseArgs installs an edge's base model on a device host under a
// baseline ID. The blob is baseline-free; later TrainMany calls and codec
// blobs reference the vector by ID.
type SetBaseArgs struct {
	Edge  int
	ID    uint64
	Model codec.Blob
	Span  SpanContext
}

// SetBaseReply is empty.
type SetBaseReply struct{}

// TrainManyArgs asks a device host to run local updating on all of the
// edge's sampled devices it hosts, from the cached base model named by
// BaseID. Devices lists them in the edge's sampled order, which fixes the
// float summation order of the reply's update sum.
type TrainManyArgs struct {
	Step    int
	Edge    int
	Devices []int
	BaseID  uint64
	Scheme  codec.Scheme
	Hyper   Hyper
	// Advance, when set, tells the host this call covers the edge's entire
	// sample for the step: the host computes the next base
	// base + Σ(w_m − base)/|Devices| itself, installs it under NextID and
	// drops BaseID, and the reply carries no update sum — no model bytes
	// cross the wire.
	Advance bool
	NextID  uint64
	Span    SpanContext
}

// TrainManyReply returns the host's training results. Sum (present unless
// the call advanced the base host-side) encodes Σ(w_m − base) over
// args.Devices in order, baseline-free; SqNorms aligns with args.Devices.
type TrainManyReply struct {
	Sum     codec.Blob
	HasSum  bool
	SqNorms [][]float64
}

// GetBaseArgs fetches the bits of a cached base model back from a host
// (always encoded lossless, whatever the run's scheme). Edges use it when
// they let a host advance the base and later need the vector themselves —
// to answer the cloud's WantModel or to seed a second host.
type GetBaseArgs struct {
	Edge int
	ID   uint64
	Span SpanContext
}

// GetBaseReply carries the requested base model.
type GetBaseReply struct {
	Model codec.Blob
}

// CloudRoundArgs tells device hosts an edge-to-cloud communication happened
// at step T, so experience buffers fold (Algorithm 2, lines 2-4).
type CloudRoundArgs struct {
	Step int
	Span SpanContext
}

// CloudRoundReply is empty.
type CloudRoundReply struct{}

// EdgeStepArgs asks an edge server to execute one time step for its edge.
// Scheme selects the wire format for the whole step; the edge forwards it
// to its device hosts.
type EdgeStepArgs struct {
	Step     int
	Members  []int
	Capacity float64
	Scheme   codec.Scheme
	// Model/ModelID, when HasModel, reset the edge model first (sent by the
	// cloud after each global aggregation): the blob is encoded against the
	// previous global the cloud distributed, and ModelID names the new
	// global for the edge's reply baseline.
	Model    codec.Blob
	ModelID  uint64
	HasModel bool
	// WantModel asks the edge to return its model in the reply. The cloud
	// sets it at cloud rounds.
	WantModel bool
	Span      SpanContext
}

// EdgeStepReply returns how many devices trained, plus the updated edge
// model when requested (encoded against the global named by the last
// EdgeStepArgs.ModelID).
type EdgeStepReply struct {
	Model    codec.Blob
	HasModel bool
	Sampled  int
}

// CommArgs asks a server for its measured communication counters.
type CommArgs struct{}

// CommReply carries measured wire bytes and model-transfer counts. For an
// edge server, uplink is device-host→edge traffic and downlink the
// reverse, and the transfer counts tally model-bearing messages.
type CommReply struct {
	UplinkBytes   int64
	DownlinkBytes int64
	Uploads       int64
	Downloads     int64
}

// PingArgs/PingReply support liveness checks.
type PingArgs struct{}

// PingReply carries the responder's role for diagnostics.
type PingReply struct {
	Role string
}
