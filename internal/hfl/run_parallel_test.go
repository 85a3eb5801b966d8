package hfl

import (
	"math/rand"
	"reflect"
	"runtime"
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

// TestEngineStepAllocations is the execution phase's allocation guard: once
// warm, an engine step — decide, the per-edge train-and-fold tasks, finalize,
// the collect point, cloud rounds and evaluations — at Workers 2 × Shards 2
// allocates at most 8 objects on average, under MACH and under MACH-P, whose
// probes re-seed a borrowed trainer's stream (one generator a probe was ≈ 40
// allocations a step). Dispatch is index tasks on reused groups, the fold
// writes into buffers New sized, and the experience book keeps running sums.
func TestEngineStepAllocations(t *testing.T) {
	const warm, steps, budget = 10, 60, 8
	for _, name := range []string{"mach", "machp"} {
		t.Run(name, func(t *testing.T) {
			parts, test, sched := tinySetup(t, 40, 4, steps, 7)
			cfg := tinyConfig(steps, 7)
			cfg.Workers, cfg.Shards = 2, 2
			var strategy sampling.Strategy
			var err error
			if name == "mach" {
				strategy, err = sampling.NewMACH(len(parts), sampling.DefaultMACHConfig())
			} else {
				strategy, err = sampling.NewMACHP(sampling.DefaultMACHConfig())
			}
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(cfg, tinyArch, parts, test, sched, strategy)
			if err != nil {
				t.Fatal(err)
			}
			var ms runtime.MemStats
			var from uint64
			hook := func(step, _ int) {
				if step == warm || step == steps-1 {
					runtime.ReadMemStats(&ms)
					if step == warm {
						from = ms.Mallocs
					}
				}
			}
			if _, err := eng.Run(WithStepHook(hook)); err != nil {
				t.Fatal(err)
			}
			perStep := float64(ms.Mallocs-from) / float64(steps-1-warm)
			t.Logf("%.2f allocations per warm step", perStep)
			if perStep > budget {
				t.Fatalf("a warm engine step allocates %.2f objects, budget %d", perStep, budget)
			}
		})
	}
}
