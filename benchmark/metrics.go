package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/telemetry"
)

// spec is BENCHMARK.json: the contract the benchmark is run and judged by.
// The harness reads metric names, units and bounds from it, so the file is
// the single place they are stated.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one JSON object a workload run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// named pairs the computed values with the units the spec gives them. It is
// an error for the harness to have computed a metric the spec does not name
// or to have missed one it does, so the two cannot drift apart.
func named(defs []specMetric, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in the spec but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s measured as %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, k := range det.SortedKeys(values) {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not in the spec", k)
		}
	}
	return out, nil
}

// stepsToTarget is the first evaluated step whose accuracy reaches target,
// or the budget when none does.
func (w *workload) stepsToTarget(ep *episode) (steps int, reached bool) {
	if step, ok := ep.history.TimeToAccuracy(w.target); ok {
		return step, true
	}
	return w.cfg.Steps, false
}

// endToEnd derives one episode's end-to-end metrics. The other two are not
// per-episode: setup_s has samples of its own (setupMedian) and peak_rss_mb
// is a property of the process. Throughput and
// cost are per device update: how many devices a step samples depends on the
// seed's mobility layout, so per-step figures move with the seed while
// per-update figures do not.
func (w *workload) endToEnd(ep *episode) map[string]float64 {
	updates := float64(ep.updates)
	return map[string]float64{
		"device_updates_per_s":         updates / ep.runWallS,
		"cpu_ms_per_device_update":     ep.cpuS * 1e3 / updates,
		"allocs_per_step":              float64(ep.mallocs) / float64(ep.steps),
		"wire_bytes_per_device_update": float64(ep.comm.Total()) / updates,
	}
}

// runInfo derives the whole-run figures that depend on the seed too much to
// be gated: the wall of the Run call and what the learning curve reached.
// cold is the process's first episode of the same seed, which paid for the
// heap's first touch.
func (w *workload) runInfo(ep, cold *episode) map[string]float64 {
	steps := float64(ep.steps)
	toTarget, _ := w.stepsToTarget(ep)
	last := ep.history.Points[ep.history.Len()-1]
	return map[string]float64{
		"run.wall_s":              ep.runWallS,
		"run.steps_per_s":         steps / ep.runWallS,
		"run.steps_to_target":     float64(toTarget),
		"run.wall_to_target_s":    ep.runWallS * float64(toTarget) / steps,
		"run.final_accuracy":      last.Accuracy,
		"run.final_loss":          last.Loss,
		"run.alloc_mb_per_step":   float64(ep.allocBytes) / (1 << 20) / steps,
		"run.wire_bytes_per_step": float64(ep.comm.Total()) / steps,
		"run.cold_start_ratio":    cold.runWallS / ep.runWallS,
	}
}

// medians reduces per-episode metric maps to the per-metric median.
func medians(samples []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(samples) == 0 {
		return out
	}
	for _, k := range det.SortedKeys(samples[0]) {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = s[k]
		}
		out[k] = median(vals)
	}
	return out
}

// quantile is the q-quantile of v by nearest rank.
func quantile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[min(len(s)-1, int(q*float64(len(s))))]
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := int64(0)
	for _, x := range v {
		sum += x
	}
	return float64(sum) / float64(len(v))
}

// warmupWindow is how many step spans each end of hfl.warmup_step_ratio
// averages over (shrunk to a third of the run when the run is shorter).
const warmupWindow = 100

// traced derives one traced episode's per-layer metrics from the telemetry
// snapshot the program exposes and from the harness's own step spans. ref is
// the untraced episode of the same invocation.
func (w *workload) traced(ep, ref *episode) map[string]float64 {
	s := ep.snap
	hist := func(name string) telemetry.HistSnapshot { return s.Histograms[name] }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	steps := float64(ep.steps)
	out := map[string]float64{}

	// Phase budget. Steps are read from the step *span* histogram: over fed
	// every component shares the one sink and the edges also observe their
	// handler time into step_ns, while only the driver of the run (engine or
	// cloud) records step spans. The engine observes decide/train/aggregate
	// once per shard per step and shards run side by side, so a phase's share
	// of the step is its sum over the shard count; imbalance between shards
	// lands in the residual. Over fed the cloud only sees the edge-step RPC
	// fan-out, which stands in for "train" there; what the edges do with
	// that time is reported under fed.*.
	stepHist := hist("span_step_ns")
	stepSum := float64(stepHist.Sum)
	shards := float64(max(len(s.Shards), 1))
	share := func(ns float64) float64 {
		if stepSum <= 0 {
			return 0
		}
		return ns / stepSum
	}
	decide := share(float64(hist("decide_ns").Sum) / shards)
	train := share(float64(hist("train_ns").Sum) / shards)
	aggregate := share(float64(hist("aggregate_ns").Sum) / shards)
	if w.hosts > 0 {
		// One concurrent RPC per edge per step: their mean, not their sum,
		// is the wall the step spent waiting on edges.
		train = share(float64(hist("span_rpc_edge_step_ns").Sum) / float64(w.cfg.Edges))
	}
	eval := share(float64(hist("eval_ns").Sum))
	reduce := share(float64(hist("span_cloud_reduce_ns").Sum))
	out["hfl.decide_share"] = decide
	out["hfl.train_share"] = train
	out["hfl.aggregate_share"] = aggregate
	out["hfl.eval_share"] = eval
	out["hfl.cloud_reduce_share"] = reduce
	out["hfl.residual_share"] = 1 - decide - train - aggregate - eval - reduce

	// Step latency: harness step spans in-process, the cloud's step span
	// histogram over fed (fed.Cloud has no step hook).
	if len(ep.stepNS) > 0 {
		out["hfl.step_p50_ms"] = ms(quantile(ep.stepNS, 0.5))
		out["hfl.step_p90_ms"] = ms(quantile(ep.stepNS, 0.9))
		out["hfl.step_samples"] = float64(len(ep.stepNS))
		n := min(warmupWindow, max(len(ep.stepNS)/3, 1))
		out["hfl.warmup_step_ratio"] = mean(ep.stepNS[:n]) / mean(ep.stepNS[len(ep.stepNS)-n:])
	} else {
		out["hfl.step_p50_ms"] = ms(stepHist.P50)
		out["hfl.step_p90_ms"] = ms(stepHist.P90)
		out["hfl.step_samples"] = float64(stepHist.Count)
		out["hfl.warmup_step_ratio"] = 1
	}

	// Algorithm counters: these must repeat exactly for a given seed.
	out["hfl.sampled_per_step"] = float64(ep.updates) / steps
	out["hfl.uploads_dropped"] = float64(s.Counters["uploads_dropped"])
	out["hfl.prob_floor_clamps"] = float64(s.Counters["prob_floor_clamps"])
	out["hfl.prob_ceil_clamps"] = float64(s.Counters["prob_ceil_clamps"])

	depth, shardP90 := int64(0), int64(0)
	for _, sh := range s.Shards {
		depth = max(depth, sh.QueueDepth)
		var sum int64
		for _, phase := range det.SortedKeys(sh.Phases) {
			sum += sh.Phases[phase].P90
		}
		shardP90 = max(shardP90, sum)
	}
	out["hfl.shard_queue_depth_max"] = float64(depth)
	out["hfl.shard_step_p90_ms"] = ms(shardP90)

	// Distributed stack: zero on in-process workloads.
	out["fed.edge_step_p50_ms"] = ms(hist("span_handle_edge_step_ns").P50)
	out["fed.edge_step_p90_ms"] = ms(hist("span_handle_edge_step_ns").P90)
	out["fed.train_many_p50_ms"] = ms(hist("span_rpc_train_many_ns").P50)
	out["fed.set_base_p50_ms"] = ms(hist("span_rpc_set_base_ns").P50)
	out["fed.rpc_calls_per_step"] = float64(s.Counters["rpc_calls"]) / steps
	out["fed.model_msgs_per_step"] = 0
	out["fed.uplink_bytes_per_step"] = 0
	out["fed.downlink_bytes_per_step"] = 0
	out["fed.cloud_bytes_per_step"] = 0
	if w.hosts > 0 {
		c := ep.comm
		out["fed.model_msgs_per_step"] = float64(c.DeviceUploads+c.DeviceDownloads+c.CloudTransfers) / steps
		out["fed.uplink_bytes_per_step"] = float64(c.DeviceUplinkBytes) / steps
		out["fed.downlink_bytes_per_step"] = float64(c.DeviceDownlinkBytes) / steps
		out["fed.cloud_bytes_per_step"] = float64(c.CloudBytes) / steps
	}

	out["telemetry.overhead_pct"] = 100 * (ep.runWallS - ref.runWallS) / ref.runWallS
	out["telemetry.snapshot_ms"] = ep.snapshotMS
	return out
}

// untraced derives the per-layer metrics that come from a run with
// telemetry off: how busy the cores were and what the collector cost.
func untraced(ep *episode) map[string]float64 {
	return map[string]float64{
		"parallel.cpu_utilization": ep.cpuS / (ep.runWallS * float64(procs())),
		"runtime.gc_cpu_share":     ep.gcCPUS / ep.cpuS,
		"runtime.gc_cycles":        float64(ep.gcCycles),
		"runtime.heap_peak_mb":     ep.heapSysMB,
	}
}
