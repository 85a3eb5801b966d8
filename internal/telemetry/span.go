package telemetry

import (
	"sync"
)

// Span-based tracing: lightweight cross-process spans over the engine's
// phases, each control-plane shard's step, and every fed RPC. Span identity is
// purely structural — an ID is a hash of (kind, step, edge, device), never
// of a clock or random draw — so the same logical operation gets the same
// ID in every process and in every identically-configured run. That is
// what lets a cloud-side RPC span and the edge-side handler span it invoked
// stitch into one tree after the fact: each process records spans into its
// own sink, the client span's ID travels in the RPC args as the server
// span's parent, and IDs agree by construction.
//
// Like the rest of the package, spans are observational only and free when
// disabled: StartSpan on a nil or spans-off sink returns an inert Span
// without reading the clock or allocating, and End on it is a no-op.

// SpanID identifies one span. The zero ID means "no span" (disabled
// tracing, or a root with no parent).
type SpanID uint64

// SpanKind classifies a span. Each kind has its own latency histogram,
// surfaced in Snapshot.Histograms under "span_<name>_ns".
type SpanKind int

// Span kinds: the engine's step phases, each control-plane shard's step,
// the cloud reduce, the client side of every fed RPC (rpc_*) and the server
// side of every fed RPC handler (handle_*).
const (
	SpanStep SpanKind = iota
	SpanDecide
	SpanTrain
	SpanFinalize
	SpanEval
	SpanCloudReduce
	SpanShardCmd
	SpanRPCEdgeStep
	SpanRPCTrainMany
	SpanRPCGetBase
	SpanRPCEstimate
	SpanRPCCloudRound
	SpanHandleEdgeStep
	SpanHandleTrainMany
	SpanHandleGetBase
	SpanHandleEstimate
	SpanHandleCloudRound

	spanKindCount
)

// spanKindNames align with the SpanKind constants.
var spanKindNames = [spanKindCount]string{
	"step",
	"decide",
	"train",
	"finalize",
	"eval",
	"cloud_reduce",
	"shard_cmd",
	"rpc_edge_step",
	"rpc_train_many",
	"rpc_get_base",
	"rpc_estimate",
	"rpc_cloud_round",
	"handle_edge_step",
	"handle_train_many",
	"handle_get_base",
	"handle_estimate",
	"handle_cloud_round",
}

// String returns the span kind's snake_case name.
func (k SpanKind) String() string {
	if k < 0 || k >= spanKindCount {
		return "unknown"
	}
	return spanKindNames[k]
}

// DeriveSpanID hashes (kind, step, edge, device) with the same FNV-style
// mix the engine uses for decision seeds. No clock, no randomness: the ID
// of a span is a pure function of what it measures, so identically-seeded
// runs — and the two processes on either end of an RPC — derive identical
// IDs. Dimensions that do not apply use -1.
//
//machlint:allocfree
func DeriveSpanID(kind SpanKind, step, edge, device int) SpanID {
	h := uint64(1469598103934665603)
	h ^= uint64(kind) + 0x517cc1b727220a95
	h *= 1099511628211
	h ^= uint64(int64(step))
	h *= 1099511628211
	h ^= uint64(int64(edge))
	h *= 1099511628211
	h ^= uint64(int64(device))
	h *= 1099511628211
	return SpanID(h)
}

// spanRingCap bounds the in-memory span ring: the newest spanRingCap
// completed spans are retained for /debug/spans; older ones age out. Only
// the per-kind latency histograms are unbounded-horizon.
const spanRingCap = 2048

// spanRecord is one completed span in the ring (internal form; kind is
// resolved to a name only at snapshot time).
type spanRecord struct {
	kind    SpanKind
	id      SpanID
	parent  SpanID
	step    int32
	edge    int32
	device  int32
	startNS int64
	durNS   int64
}

// spanState is everything span recording needs, allocated once when spans
// are enabled so a spans-off sink pays a single atomic pointer load.
type spanState struct {
	dur [spanKindCount]histogram

	mu   sync.Mutex
	next uint64
	ring [spanRingCap]spanRecord
}

// EnableSpans turns span recording on or off. Enabling allocates the
// per-kind latency histograms and the span ring; disabling discards them.
// Safe on a nil receiver and concurrent with recording.
func (t *Telemetry) EnableSpans(on bool) {
	if t == nil {
		return
	}
	if !on {
		t.spans.Store(nil)
		return
	}
	if t.spans.Load() == nil {
		t.spans.Store(new(spanState))
	}
}

// Span is an open span. The zero Span (from a nil or spans-off sink) is
// inert: End is a no-op.
type Span struct {
	t      *Telemetry
	kind   SpanKind
	id     SpanID
	parent SpanID
	step   int
	edge   int
	device int
	start  int64
}

// StartSpan opens a span of the given kind with its ID derived from
// (kind, step, edge, device); parent links it into a tree (0 = root).
// Disabled spans cost one nil check plus one atomic load and never read
// the clock.
//
//machlint:allocfree
func (t *Telemetry) StartSpan(kind SpanKind, parent SpanID, step, edge, device int) Span {
	if t == nil || t.spans.Load() == nil {
		return Span{}
	}
	return Span{
		t:      t,
		kind:   kind,
		id:     DeriveSpanID(kind, step, edge, device),
		parent: parent,
		step:   step,
		edge:   edge,
		device: device,
		start:  t.clock(),
	}
}

// End closes the span, recording its duration into the kind's latency
// histogram and the span ring. No-op on an inert span.
//
//machlint:allocfree
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.recordSpan(s.kind, s.id, s.parent, s.step, s.edge, s.device, s.start, s.t.clock())
}

// RecordSpan records an already-timed span from a pair of Now timestamps,
// for call sites that already measure a phase and should not read the
// clock twice. The ID is derived exactly as in StartSpan.
//
//machlint:allocfree
func (t *Telemetry) RecordSpan(kind SpanKind, parent SpanID, step, edge, device int, startNS, endNS int64) {
	if t == nil || t.spans.Load() == nil {
		return
	}
	t.recordSpan(kind, DeriveSpanID(kind, step, edge, device), parent, step, edge, device, startNS, endNS)
}

//machlint:allocfree
func (t *Telemetry) recordSpan(kind SpanKind, id, parent SpanID, step, edge, device int, startNS, endNS int64) {
	sp := t.spans.Load()
	if sp == nil {
		return
	}
	sp.dur[kind].observe(endNS - startNS)
	sp.mu.Lock()
	r := &sp.ring[sp.next%spanRingCap]
	sp.next++
	r.kind = kind
	r.id = id
	r.parent = parent
	r.step = int32(step)
	r.edge = int32(edge)
	r.device = int32(device)
	r.startNS = startNS
	r.durNS = endNS - startNS
	sp.mu.Unlock()
}

// SpanSnapshot is one completed span, as exposed by Spans and
// /debug/spans.
type SpanSnapshot struct {
	Kind    string `json:"kind"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Step    int    `json:"step"`
	Edge    int    `json:"edge"`
	Device  int    `json:"device"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// Spans copies the retained span ring, oldest first. Empty when spans are
// disabled.
func (t *Telemetry) Spans() []SpanSnapshot {
	if t == nil {
		return nil
	}
	sp := t.spans.Load()
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	n := sp.next
	count := n
	if count > spanRingCap {
		count = spanRingCap
	}
	out := make([]SpanSnapshot, 0, count)
	for i := n - count; i < n; i++ {
		r := &sp.ring[i%spanRingCap]
		out = append(out, SpanSnapshot{
			Kind:    r.kind.String(),
			ID:      uint64(r.id),
			Parent:  uint64(r.parent),
			Step:    int(r.step),
			Edge:    int(r.edge),
			Device:  int(r.device),
			StartNS: r.startNS,
			DurNS:   r.durNS,
		})
	}
	return out
}
