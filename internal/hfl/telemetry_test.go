package hfl

import (
	"strings"
	"testing"

	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
)

// TestTraceReconstructsDecisions drives the full trace pipeline end to end:
// two identically-seeded runs produce traces with zero divergence, and every
// recorded decision is internally consistent — the coin/probability
// comparison reproduces the sampled set, and Why reconstructs a device's
// fate from the raw events.
func TestTraceReconstructsDecisions(t *testing.T) {
	record := func() ([]telemetry.Event, *Result) {
		r := runCell(t, layoutCell{world: "tiny", strategy: "mach", workers: 3, shards: 1, tel: telMetrics}, nil)
		events, err := telemetry.ReadEvents(strings.NewReader(r.trace))
		if err != nil {
			t.Fatal(err)
		}
		return events, r.res
	}
	ea, res := record()
	eb, _ := record()
	if div := telemetry.Diff(ea, eb); div != nil {
		t.Fatalf("identically-seeded traces diverge: %+v", div[0])
	}

	decisions := 0
	var probe *telemetry.DecisionEvent
	probeStep := 0
	for i := range ea {
		ev := &ea[i]
		if ev.Type != telemetry.EventDecision {
			continue
		}
		decisions++
		d := ev.Decision
		if len(d.Probs) != len(d.Members) || len(d.Coins) != len(d.Members) {
			t.Fatalf("step %d edge %d: %d members, %d probs, %d coins", ev.Step, d.Edge, len(d.Members), len(d.Probs), len(d.Coins))
		}
		if len(d.Estimates) != len(d.Members) {
			t.Fatalf("step %d edge %d: MACH decision lacks estimates", ev.Step, d.Edge)
		}
		// Replay the Bernoulli comparisons: they must reproduce Sampled.
		var sampled []int
		for i, m := range d.Members {
			if d.Coins[i] < d.Probs[i] {
				sampled = append(sampled, m)
			}
		}
		if len(sampled) != len(d.Sampled) {
			t.Fatalf("step %d edge %d: replayed %d sampled, recorded %d", ev.Step, d.Edge, len(sampled), len(d.Sampled))
		}
		for i, m := range d.Sampled {
			if sampled[i] != m {
				t.Fatalf("step %d edge %d: replayed sampled %v, recorded %v", ev.Step, d.Edge, sampled, d.Sampled)
			}
		}
		if probe == nil && len(d.Sampled) > 0 {
			probe, probeStep = d, ev.Step
		}
	}
	if decisions == 0 {
		t.Fatal("trace recorded no decisions")
	}
	if probe == nil {
		t.Fatal("no decision sampled any device")
	}

	// Why must reconstruct a sampled device's decision from the raw trace.
	r, err := telemetry.Why(ea, probe.Sampled[0], probeStep)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sampled || r.Edge != probe.Edge || !(r.Coin < r.Prob) {
		t.Fatalf("Why(%d, %d) = %+v, want a sampled reconstruction on edge %d", probe.Sampled[0], probeStep, r, probe.Edge)
	}
	if !r.HasEstimate {
		t.Fatalf("Why(%d, %d) lacks the UCB estimate", probe.Sampled[0], probeStep)
	}

	// The uploads dropped by failure coins must be visible in the trace.
	dropped := 0
	for i := range ea {
		if ea[i].Type == telemetry.EventDecision {
			dropped += len(ea[i].Decision.Dropped)
		}
	}
	trained := 0
	for i := range ea {
		if ea[i].Type == telemetry.EventDecision {
			trained += len(ea[i].Decision.Sampled)
		}
	}
	if trained-dropped != res.TotalSampled {
		t.Fatalf("trace sampled %d − dropped %d ≠ uploaded %d", trained, dropped, res.TotalSampled)
	}
}

// TestDecideWarmPathZeroAllocNilTelemetry pins the disabled-telemetry cost
// of the decision hot path at exactly zero allocations: with the decide
// state warm, a full edge decision (UCB estimates, probabilities, every
// coin) must not allocate when no sink is attached.
func TestDecideWarmPathZeroAllocNilTelemetry(t *testing.T) {
	parts, test, sched := tinySetup(t, 12, 3, 12, 21)
	cfg := tinyConfig(12, 21)
	s, err := sampling.NewMACH(12, sampling.DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cfg, tinyArch, parts, test, sched, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.advanceMobility(0); err != nil {
		t.Fatal(err)
	}
	if err := eng.edgeDecide(0, 0); err != nil { // warm-up installs the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := eng.edgeDecide(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm decide path allocates %.1f per edge with telemetry disabled, want 0", allocs)
	}
}
