// Package det holds the three things every deterministic path shares: the one
// unordered map walk the codebase needs — collecting keys to sort them — in a
// single audited place instead of re-spelled wherever machlint's maprange
// check fires, the seed table every random stream of a run derives from, and
// the one-word generator (Stream) the keyed streams of that table run on.
package det

import (
	"cmp"
	"math/rand"
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
// what the in-process engine draws. Every keyed stream folds its own domain
// tag in right after the run seed, so no two streams can meet by key
// arithmetic (TestSeedDomainsDisjoint). The constants are frozen: changing
// one moves every golden trajectory.
const (
	tagDeviceBatch = 0x42415443 // "BATC"
	tagEdgeCoin    = 0x434f494e // "COIN"
	tagProbe       = 0x50524f42 // "PROB"
)

// ModelInit seeds the initial global model w⁰ (the architecture's weight
// initialisation). It is the one stream of the table that stays on
// math/rand: one per run, drawn through rand.NormFloat64 by every layer.
func ModelInit(run int64) int64 { return run }

// DeviceBatch seeds the minibatches ξ of device's local update at step. A
// device trains at most once per step, so the key names each update's draws
// whichever trainer, edge or host runs it: the device carries no stream.
func DeviceBatch(run int64, step, device int) int64 {
	return Mix(run, tagDeviceBatch, int64(step), int64(device))
}

// EdgeCoin seeds an edge's per-step decision stream: strategy draws, then the
// Bernoulli sampling (and upload-failure) coins in member order.
func EdgeCoin(run int64, step, edge int) int64 {
	return Mix(run, tagEdgeCoin, int64(step), int64(edge))
}

// Probe seeds the minibatch MACH-P's oracle probes a device's gradient on.
func Probe(run int64, step, device int) int64 {
	return Mix(run, tagProbe, int64(step), int64(device))
}

// MobilityDevice seeds a device's trajectory under one streaming mobility
// model; model is the model's salt — its domain tag — keeping the models'
// streams disjoint from each other and from the streams above.
func MobilityDevice(run, model int64, device int) int64 { return Mix(run, model, int64(device)) }

// Stream is the generator every keyed stream of the seed table runs on:
// splitmix64 over one word of state. A run restarts one per local update and
// per (step, edge), so state size and Seed are per-entity costs:
// 8 bytes and one store here, against math/rand's 607-word register and its
// ~10 µs re-expansion (DESIGN.md §5). *Stream is a rand.Source64: consumers
// of the math/rand API take NewRand's *rand.Rand over it, while the mobility
// steppers and the scale benchmark's coins draw from the word directly.
type Stream uint64

// Seed restarts the stream at seed: the whole state is that one word.
func (s *Stream) Seed(seed int64) { *s = Stream(seed) }

// Uint64 returns the next 64 uniform bits.
func (s *Stream) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns the next 63 uniform bits (rand.Source).
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Float64 returns the next draw in [0, 1): the top 53 bits of one word.
func (s *Stream) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

// Int63n returns a uniform draw in [0, n), rejecting the biased tail so the
// draw is exactly uniform.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("det: Int63n on non-positive bound")
	}
	max := uint64(1)<<63 - 1
	limit := max - max%uint64(n)
	for {
		v := s.Uint64() >> 1
		if v < limit {
			return int64(v % uint64(n))
		}
	}
}

// Intn returns a uniform draw in [0, n).
func (s *Stream) Intn(n int) int { return int(s.Int63n(int64(n))) }

// NewRand returns a *rand.Rand over a fresh Stream at seed. Rand.Seed on the
// result restarts the stream in place, allocating nothing.
func NewRand(seed int64) *rand.Rand {
	s := Stream(seed)
	return rand.New(&s)
}
