// Package telemetry is the repo's observability layer: process-wide
// counters, gauges and fixed-bucket histograms for the training engine's
// phases, a structured JSONL trace of every sampling decision, and the
// debug HTTP surface (JSON snapshot, Prometheus text, pprof) that exposes
// them.
//
// The package is built so that *disabled* telemetry is free: every method
// on *Telemetry is safe on a nil receiver and returns immediately, so the
// engine threads a possibly-nil pointer through its hot paths without
// branching on a separate "enabled" flag. The nil fast path performs zero
// allocations (enforced by AllocsPerRun tests) and never reads the clock,
// keeping disabled runs deterministic and syscall-free. Enabled telemetry
// records only *observations* — timings, counts, summaries — never inputs
// to the simulation, so seeded runs stay bit-identical whether telemetry
// is on or off (DESIGN.md §8).
package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter identifies one monotonically increasing metric.
type Counter int

// Counters of the training engine and the distributed stack.
const (
	// CounterSteps counts completed time steps.
	CounterSteps Counter = iota
	// CounterDevicesTrained counts device participations (local SGD runs).
	CounterDevicesTrained
	// CounterDevicesUploaded counts successful model uploads.
	CounterDevicesUploaded
	// CounterUploadsDropped counts sampled devices whose upload-failure
	// coin dropped their result.
	CounterUploadsDropped
	// CounterCloudRounds counts edge-to-cloud aggregations (Eq. 6).
	CounterCloudRounds
	// CounterEvals counts global-model evaluations.
	CounterEvals
	// CounterProbes counts oracle gradient-norm probes (MACH-P).
	CounterProbes
	// CounterProbFloorClamps counts sampling probabilities saturated at the
	// strategy's floor (q_min) by the capacity normalization of Eq. (18);
	// CounterProbCeilClamps counts saturations at 1. Together they expose
	// how hard the single-pass cap is clipping the transfer-function output.
	CounterProbFloorClamps
	CounterProbCeilClamps
	// CounterDeviceDownlinkBytes/CounterDeviceUplinkBytes/CounterCloudBytes
	// fold the engine's CommStats into the metrics surface.
	CounterDeviceDownlinkBytes
	CounterDeviceUplinkBytes
	CounterCloudBytes
	// CounterRPCCalls counts RPC handler invocations in the distributed
	// stack (internal/fed).
	CounterRPCCalls

	counterCount
)

// counterNames align with the Counter constants.
var counterNames = [counterCount]string{
	"steps",
	"devices_trained",
	"devices_uploaded",
	"uploads_dropped",
	"cloud_rounds",
	"evals",
	"probes",
	"prob_floor_clamps",
	"prob_ceil_clamps",
	"device_downlink_bytes",
	"device_uplink_bytes",
	"cloud_bytes",
	"rpc_calls",
}

// Gauge identifies one last-value metric.
type Gauge int

// Gauges of the training engine.
const (
	// GaugeUCBMin/Mean/Max summarize the per-member UCB estimates of the
	// most recent step, across all edges (Eq. 15).
	GaugeUCBMin Gauge = iota
	GaugeUCBMean
	GaugeUCBMax
	// GaugeProbMass is Σ q over all members of all edges in the most recent
	// step — the expected number of sampled devices (Eq. 3 sums to ≤ ΣK_n).
	GaugeProbMass
	// GaugeNeverPulled is the number of devices the experience estimator has
	// never observed; GaugeMaxPulls the most-pulled device's participation
	// count. Both refresh at cloud rounds.
	GaugeNeverPulled
	GaugeMaxPulls
	// GaugeAccuracy/GaugeLoss are the most recent evaluation results.
	GaugeAccuracy
	GaugeLoss
	// GaugeQueueDepth samples the worker pool's submission backlog during
	// the execution phase.
	GaugeQueueDepth

	gaugeCount
)

// gaugeNames align with the Gauge constants.
var gaugeNames = [gaugeCount]string{
	"ucb_min",
	"ucb_mean",
	"ucb_max",
	"prob_mass",
	"never_pulled",
	"max_pulls",
	"accuracy",
	"loss",
	"queue_depth",
}

// Hist identifies one fixed-bucket histogram.
type Hist int

// Histograms of the training engine. The *NS histograms record phase
// durations in nanoseconds; the Edge* histograms record per-edge per-step
// population counts.
const (
	HistDecideNS Hist = iota
	HistTrainNS
	HistAggregateNS
	HistEvalNS
	HistStepNS
	HistEdgeMembers
	HistEdgeSampled

	histCount
)

// histNames align with the Hist constants.
var histNames = [histCount]string{
	"decide_ns",
	"train_ns",
	"aggregate_ns",
	"eval_ns",
	"step_ns",
	"edge_members",
	"edge_sampled",
}

// Histogram buckets are HDR-style log-linear: bucket 0 holds values ≤ 0,
// values 1..histExactMax land in exact unit buckets, and every power-of-two
// octave above that splits into histSubCount linear sub-buckets, so an
// observation is never more than one part in histSubCount (6.25%) from its
// bucket bounds — tight enough to report p50/p90/p99/p999 from bucket
// counts alone. The layout covers the full int64 range with no
// configuration, and bucketing stays a bits.Len64 plus a shift — cheap
// enough for per-edge observations.
const (
	histSubBits  = 4                         // 16 linear sub-buckets per octave
	histSubCount = 1 << histSubBits          //
	histExactMax = 1<<(histSubBits+1) - 1    // values 1..31 bucket exactly
	histBuckets  = histExactMax + 1 + (63-(histSubBits+1))*histSubCount
)

// histBucketIndex maps an observation to its bucket. The top bucket ends at
// MaxInt64, so arbitrarily large observations saturate there instead of
// overflowing.
func histBucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	if v <= histExactMax {
		return int(v)
	}
	o := bits.Len64(uint64(v)) // ≥ histSubBits+2 here
	sub := int(uint64(v)>>(o-1-histSubBits)) & (histSubCount - 1)
	return histExactMax + 1 + (o-(histSubBits+2))*histSubCount + sub
}

// histBucketBounds is the inverse of histBucketIndex: the closed value
// range [lo, hi] that bucket idx covers.
func histBucketBounds(idx int) (lo, hi int64) {
	if idx <= 0 {
		return 0, 0
	}
	if idx <= histExactMax {
		return int64(idx), int64(idx)
	}
	k := idx - histExactMax - 1
	o := k/histSubCount + histSubBits + 2
	sub := k % histSubCount
	width := int64(1) << (o - 1 - histSubBits)
	lo = int64(1)<<(o-1) + int64(sub)*width
	return lo, lo + width - 1
}

// histogram is a log-linear-bucket histogram over non-negative int64
// observations. All fields are atomics, so concurrent observers (parallel
// decide, pool workers) need no lock.
type histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func (h *histogram) observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[histBucketIndex(v)].Add(1)
}

// ShardPhase identifies one phase of a control-plane shard's step: the
// shard-indexed analogue of the HistDecideNS/HistTrainNS/HistAggregateNS
// histograms, so per-shard imbalance is visible where the aggregate
// histograms would average it away.
type ShardPhase int

// Shard phases of one step.
const (
	ShardPhaseDecide ShardPhase = iota
	ShardPhaseTrain
	ShardPhaseFinalize

	shardPhaseCount
)

// shardPhaseNames align with the ShardPhase constants.
var shardPhaseNames = [shardPhaseCount]string{"decide", "train", "finalize"}

// shardMetrics is one shard's slot: per-phase duration histograms and the
// worker-pool backlog observed when the shard submitted its execution tasks.
type shardMetrics struct {
	phases     [shardPhaseCount]histogram
	queueDepth atomic.Int64
}

// Telemetry is the metrics sink. The zero value is not useful — construct
// with New — but a nil *Telemetry is: every method no-ops, allocation-free,
// so "telemetry disabled" is simply a nil pointer.
type Telemetry struct {
	clock    func() int64
	counters [counterCount]atomic.Int64
	gauges   [gaugeCount]atomic.Uint64 // float64 bits
	hists    [histCount]histogram
	shards   atomic.Pointer[[]shardMetrics]
	spans    atomic.Pointer[spanState]
	trace    atomic.Pointer[Trace]
}

// New returns an enabled telemetry sink using the process monotonic clock.
func New() *Telemetry {
	return &Telemetry{clock: monotonicNS}
}

// NewWithClock returns a sink whose Now reads from clock instead of the
// monotonic wall clock; tests use it to make timings deterministic.
func NewWithClock(clock func() int64) *Telemetry {
	return &Telemetry{clock: clock}
}

// SetTrace attaches a structured trace sink; nil detaches it. Safe to call
// concurrently with readers.
func (t *Telemetry) SetTrace(tr *Trace) {
	if t == nil {
		return
	}
	t.trace.Store(tr)
}

// Trace returns the attached trace sink, or nil when telemetry or tracing
// is disabled. The returned *Trace is itself nil-safe.
func (t *Telemetry) Trace() *Trace {
	if t == nil {
		return nil
	}
	return t.trace.Load()
}

// Now reads the telemetry clock in nanoseconds. Disabled telemetry returns
// 0 without touching any clock, so the disabled hot path stays
// syscall-free; callers pair Now with ObserveSince and both degrade to
// no-ops together.
//
//machlint:allocfree
func (t *Telemetry) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Add increments a counter by delta.
//
//machlint:allocfree
func (t *Telemetry) Add(c Counter, delta int64) {
	if t == nil {
		return
	}
	t.counters[c].Add(delta)
}

// Count returns a counter's current value (0 when disabled).
func (t *Telemetry) Count(c Counter) int64 {
	if t == nil {
		return 0
	}
	return t.counters[c].Load()
}

// SetGauge records a gauge's latest value.
//
//machlint:allocfree
func (t *Telemetry) SetGauge(g Gauge, v float64) {
	if t == nil {
		return
	}
	t.gauges[g].Store(math.Float64bits(v))
}

// GaugeValue returns a gauge's latest value (0 when disabled).
func (t *Telemetry) GaugeValue(g Gauge) float64 {
	if t == nil {
		return 0
	}
	return math.Float64frombits(t.gauges[g].Load())
}

// Observe records one histogram observation.
//
//machlint:allocfree
func (t *Telemetry) Observe(h Hist, v int64) {
	if t == nil {
		return
	}
	t.hists[h].observe(v)
}

// ObserveSince records the nanoseconds elapsed since start (a value from
// Now) into a duration histogram. On a nil receiver both Now and
// ObserveSince are no-ops, so instrumented code needs no enabled check.
//
//machlint:allocfree
func (t *Telemetry) ObserveSince(h Hist, start int64) {
	if t == nil {
		return
	}
	t.hists[h].observe(t.clock() - start)
}

// SetShardCount sizes the per-shard metric slots. The engine calls it once
// per Run with the effective shard count; observations to out-of-range
// shards are dropped. Re-sizing to the current count keeps existing
// observations; any other count resets them (the slots are replaced).
func (t *Telemetry) SetShardCount(n int) {
	if t == nil || n < 0 {
		return
	}
	if cur := t.shards.Load(); cur != nil && len(*cur) == n {
		return
	}
	s := make([]shardMetrics, n)
	t.shards.Store(&s)
}

// ShardCount returns how many per-shard metric slots are configured.
func (t *Telemetry) ShardCount() int {
	if t == nil {
		return 0
	}
	s := t.shards.Load()
	if s == nil {
		return 0
	}
	return len(*s)
}

// ObserveShardPhase records one shard's phase duration in nanoseconds.
//
//machlint:allocfree
func (t *Telemetry) ObserveShardPhase(shard int, p ShardPhase, ns int64) {
	if t == nil {
		return
	}
	s := t.shards.Load()
	if s == nil || shard < 0 || shard >= len(*s) {
		return
	}
	(*s)[shard].phases[p].observe(ns)
}

// SetShardQueueDepth records the worker-pool backlog a shard saw when it
// submitted its execution tasks — a per-shard gauge, last value wins.
//
//machlint:allocfree
func (t *Telemetry) SetShardQueueDepth(shard int, depth int64) {
	if t == nil {
		return
	}
	s := t.shards.Load()
	if s == nil || shard < 0 || shard >= len(*s) {
		return
	}
	(*s)[shard].queueDepth.Store(depth)
}

// ShardQueueDepth returns a shard's last recorded queue depth (0 when
// disabled or out of range).
func (t *Telemetry) ShardQueueDepth(shard int) int64 {
	if t == nil {
		return 0
	}
	s := t.shards.Load()
	if s == nil || shard < 0 || shard >= len(*s) {
		return 0
	}
	return (*s)[shard].queueDepth.Load()
}

// HistBucket is one non-empty histogram bucket of a snapshot: Count
// observations fell in [Lo, Hi].
type HistBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistSnapshot is one histogram's state at snapshot time. The percentile
// fields are estimated from the log-linear buckets (≤ 6.25% relative
// error), interpolating within a bucket and rounding toward the bucket's
// upper bound, so the estimate never understates a latency. An empty
// histogram reports zero for every percentile.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Mean    float64      `json:"mean"`
	P50     int64        `json:"p50"`
	P90     int64        `json:"p90"`
	P99     int64        `json:"p99"`
	P999    int64        `json:"p999"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// ShardSnapshot is one control-plane shard's state at snapshot time.
type ShardSnapshot struct {
	Shard      int                     `json:"shard"`
	Phases     map[string]HistSnapshot `json:"phases"`
	QueueDepth int64                   `json:"queue_depth"`
}

// Snapshot is a point-in-time copy of every metric, rendered with stable
// string keys. encoding/json serializes map keys in sorted order and shards
// are listed in shard order, so a marshalled snapshot is deterministic for
// deterministic metric values.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	Shards     []ShardSnapshot         `json:"shards,omitempty"`
}

// Snapshot copies the current metric values. It returns an empty (non-nil)
// snapshot when telemetry is disabled, so renderers need no nil check.
func (t *Telemetry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if t == nil {
		return s
	}
	for c := Counter(0); c < counterCount; c++ {
		s.Counters[counterNames[c]] = t.counters[c].Load()
	}
	for g := Gauge(0); g < gaugeCount; g++ {
		s.Gauges[gaugeNames[g]] = math.Float64frombits(t.gauges[g].Load())
	}
	for h := Hist(0); h < histCount; h++ {
		s.Histograms[histNames[h]] = snapshotHist(&t.hists[h])
	}
	if sp := t.spans.Load(); sp != nil {
		// Span latency histograms join the main map under a "span_" prefix;
		// kinds with no observations are omitted to keep snapshots compact.
		for k := SpanKind(0); k < spanKindCount; k++ {
			hs := snapshotHist(&sp.dur[k])
			if hs.Count == 0 {
				continue
			}
			s.Histograms["span_"+spanKindNames[k]+"_ns"] = hs
		}
	}
	if shards := t.shards.Load(); shards != nil {
		for i := range *shards {
			sm := &(*shards)[i]
			ss := ShardSnapshot{
				Shard:      i,
				Phases:     map[string]HistSnapshot{},
				QueueDepth: sm.queueDepth.Load(),
			}
			for p := ShardPhase(0); p < shardPhaseCount; p++ {
				ss.Phases[shardPhaseNames[p]] = snapshotHist(&sm.phases[p])
			}
			s.Shards = append(s.Shards, ss)
		}
	}
	return s
}

// snapshotHist copies one histogram's state. Quantiles are computed from
// one consistent copy of the bucket counts, so a snapshot taken during
// concurrent observation is internally coherent even if it trails the live
// count/sum by a few observations.
func snapshotHist(hist *histogram) HistSnapshot {
	hs := HistSnapshot{Count: hist.count.Load(), Sum: hist.sum.Load()}
	if hs.Count > 0 {
		hs.Mean = float64(hs.Sum) / float64(hs.Count)
	}
	var counts [histBuckets]int64
	var total int64
	for i := 0; i < histBuckets; i++ {
		n := hist.buckets[i].Load()
		counts[i] = n
		total += n
		if n == 0 {
			continue
		}
		lo, hi := histBucketBounds(i)
		hs.Buckets = append(hs.Buckets, HistBucket{Lo: lo, Hi: hi, Count: n})
	}
	hs.P50 = histQuantile(&counts, total, 0.50)
	hs.P90 = histQuantile(&counts, total, 0.90)
	hs.P99 = histQuantile(&counts, total, 0.99)
	hs.P999 = histQuantile(&counts, total, 0.999)
	return hs
}

// histQuantile estimates the q-quantile from bucket counts: find the bucket
// holding the ceil(q·total)-th observation and interpolate linearly by rank
// position within the bucket's [lo, hi] range, rounding up. A single
// observation therefore reports its own (bucket-resolution) value at every
// quantile, and an empty histogram reports 0.
func histQuantile(counts *[histBuckets]int64, total int64, q float64) int64 {
	if total <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := counts[i]
		if n == 0 {
			continue
		}
		cum += n
		if cum >= rank {
			lo, hi := histBucketBounds(i)
			pos := rank - (cum - n) // 1..n within this bucket
			return lo + (hi-lo)*pos/n
		}
	}
	return 0
}

// WriteSnapshot renders the current metrics as indented JSON.
func (t *Telemetry) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Snapshot())
}
