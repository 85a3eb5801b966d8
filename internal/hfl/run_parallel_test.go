package hfl

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/sampling"
)

// TestMobilityStatsDeterministic extends the determinism contract to the
// mobility-statistics path: ComputeStats groups records by device in a map,
// so it must be bit-identical across repeated calls AND across record
// orderings — the grouping map must never leak its iteration order into the
// result.
func TestMobilityStatsDeterministic(t *testing.T) {
	const devices, stations = 17, 5
	trace := &mobility.Trace{}
	rng := rand.New(rand.NewSource(7))
	for d := 0; d < devices; d++ {
		at := int64(0)
		for hop := 0; hop < 6; hop++ {
			dwell := int64(1 + rng.Intn(40))
			trace.Records = append(trace.Records, mobility.Record{
				Device:  d,
				Station: rng.Intn(stations),
				Start:   at,
				End:     at + dwell,
			})
			at += dwell
		}
	}

	refStats := mobility.ComputeStats(trace)

	for trial := 0; trial < 5; trial++ {
		// A fresh permutation of the records each trial: results must not
		// depend on input order, only on content.
		shuffled := &mobility.Trace{Records: append([]mobility.Record(nil), trace.Records...)}
		rng.Shuffle(len(shuffled.Records), func(i, j int) {
			shuffled.Records[i], shuffled.Records[j] = shuffled.Records[j], shuffled.Records[i]
		})
		if stats := mobility.ComputeStats(shuffled); !reflect.DeepEqual(stats, refStats) {
			t.Fatalf("trial %d: ComputeStats depends on record order:\n got %+v\nwant %+v", trial, stats, refStats)
		}
	}
}

// TestAggregateEdgeSteadyStateZeroAllocs pins the double-buffer contract:
// after the first call installs the buffers, edge aggregation never
// allocates, in every mode.
func TestAggregateEdgeSteadyStateZeroAllocs(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 2, 5, 3)
	for _, mode := range []Aggregation{AggInverseUpdate, AggPlain, AggLiteralEq5} {
		cfg := tinyConfig(5, 3)
		cfg.Aggregation = mode
		eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
		if err != nil {
			t.Fatal(err)
		}
		results := []localResult{
			{params: eng.GlobalParams(), weight: 0.7, size: 40},
			{params: eng.GlobalParams(), weight: 1.3, size: 40},
		}
		eng.aggregateEdge(0, results, true) // warm-up installs the buffer
		allocs := testing.AllocsPerRun(50, func() {
			eng.aggregateEdge(0, results, true)
		})
		if allocs != 0 {
			t.Fatalf("mode %v: aggregateEdge allocates %v objects per call in steady state", mode, allocs)
		}
	}
}

// TestAggregatePlainZeroTotalFallsBackToMean covers the total == 0 guard:
// participants that all report empty datasets must produce a plain mean, not
// a division by zero.
func TestAggregatePlainZeroTotalFallsBackToMean(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 2, 5, 3)
	eng, err := New(tinyConfig(5, 3), tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	p := len(eng.global)
	a, b := make([]float64, p), make([]float64, p)
	for j := range a {
		a[j], b[j] = 1, 3
	}
	eng.aggregateEdge(0, []localResult{
		{params: a, weight: 1, size: 0},
		{params: b, weight: 1, size: 0},
	}, false)
	for j, v := range eng.edge[0] {
		if math.IsNaN(v) {
			t.Fatal("zero-size aggregation produced NaN")
		}
		if v != 2 {
			t.Fatalf("edge[0][%d] = %v, want plain mean 2", j, v)
		}
	}
}

// TestEvaluateSurfacesModelMismatch covers the error-propagation fix: a
// global vector that no longer fits the architecture must fail loudly from
// every evaluation entry point instead of reporting zeros.
func TestEvaluateSurfacesModelMismatch(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 2, 5, 3)
	eng, err := New(tinyConfig(5, 3), tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	eng.global = eng.global[:len(eng.global)-1]
	if _, _, err := eng.evaluate(); err == nil {
		t.Fatal("evaluate accepted a truncated global vector")
	}
	if _, err := eng.EvaluateConfusion(); err == nil {
		t.Fatal("EvaluateConfusion accepted a truncated global vector")
	}
}

// TestProbeGradNormPanicsWithContext covers the probe-side fix: the strategy
// callback has no error channel, so a wiring bug must panic with enough
// context to locate it, not score the device as zero.
func TestProbeGradNormPanicsWithContext(t *testing.T) {
	parts, test, sched := tinySetup(t, 8, 2, 5, 3)
	eng, err := New(tinyConfig(5, 3), tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	eng.edge[0] = eng.edge[0][:len(eng.edge[0])-1]
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("probeGradNorm returned instead of panicking on a truncated edge model")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "probe gradient of device") {
			t.Fatalf("panic lacks context: %v", r)
		}
	}()
	eng.probeGradNorm(0, 0, 0)
}
