// Package det holds the two things every deterministic path shares: the one
// unordered map walk the codebase needs — collecting keys to sort them — in a
// single audited place instead of re-spelled wherever machlint's maprange
// check fires, and the seed table every random stream of a run derives from.
package det

import (
	"cmp"
	"slices"
)

// SortedKeys returns the keys of m in ascending order. Iterating
// `for _, k := range det.SortedKeys(m)` is the canonical remediation for a
// maprange finding: the walk below is order-blind because sorting erases
// the randomized iteration order before any caller observes it.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	//machlint:allow maprange keys are sorted before being returned; this helper is the remediation maprange prescribes
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Mix folds its parts into one seed, FNV-1a style over 64-bit words. Every
// derived random stream of a run is seeded through it, by way of the named
// constructors below: the table of who draws from what (DESIGN.md §5).
func Mix(parts ...int64) int64 {
	h := int64(1469598103934665603)
	for _, p := range parts {
		h ^= p
		h *= 1099511628211
	}
	return h
}

// The seed table. Each stream is a pure function of the run seed and the
// stream's key — never of the worker, shard or host that consumes it — which
// is what makes runs bit-identical across layouts and lets a fed cluster draw
// what the in-process engine draws. The constants are frozen: changing one
// moves every golden trajectory.

// ModelInit seeds the initial global model w⁰ (the architecture's weight
// initialisation).
func ModelInit(run int64) int64 { return run }

// DeviceBatch seeds a device's minibatch stream ξ, which travels with the
// device across edges, steps and hosts.
func DeviceBatch(run int64, device int) int64 { return Mix(run, 0x9E3779B9, int64(device)) }

// EdgeCoin seeds an edge's per-step decision stream: strategy draws, then the
// Bernoulli sampling (and upload-failure) coins in member order.
func EdgeCoin(run int64, step, edge int) int64 { return Mix(run, int64(step)+1, int64(edge)+101) }

// Probe seeds the minibatch MACH-P's oracle probes a device's gradient on.
func Probe(run int64, step, device int) int64 { return Mix(run, int64(step)+7, int64(device)+301) }

// EvalSubsample seeds the test-set subsample of one evaluation.
func EvalSubsample(run int64, step int) int64 { return Mix(run, 0xE7A1, int64(step)) }

// MobilityDevice seeds a device's trajectory under one streaming mobility
// model; model is the model's salt, keeping the models' streams disjoint.
func MobilityDevice(run, model int64, device int) int64 { return Mix(run, model, int64(device)) }
