package det

import (
	"fmt"
	"reflect"
	"testing"
)

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"edge2": 2, "edge0": 0, "edge1": 1}
	want := []string{"edge0", "edge1", "edge2"}
	for i := 0; i < 10; i++ { // map order is randomized per iteration attempt
		if got := SortedKeys(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("SortedKeys = %v, want %v", got, want)
		}
	}
	if got := SortedKeys(map[int]string{}); len(got) != 0 {
		t.Fatalf("SortedKeys on empty map = %v, want empty", got)
	}
	ints := map[int]bool{3: true, -1: true, 2: true}
	if got := SortedKeys(ints); !reflect.DeepEqual(got, []int{-1, 2, 3}) {
		t.Fatalf("SortedKeys(int keys) = %v", got)
	}
}

// TestSeedTableGolden pins every named stream at fixed inputs. A changed
// constant fails here, by name, instead of as an opaque drift in some
// trajectory golden downstream. Mix, ModelInit and MobilityDevice hold the
// values the engine has always seeded with; the other three were re-pinned
// when each stream got its domain tag, and DeviceBatch again when its key
// gained the step (old → new in DESIGN.md §5).
func TestSeedTableGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"Mix()", Mix(), 1469598103934665603},
		{"Mix(1,2,3)", Mix(1, 2, 3), -6875869291373882723},
		{"ModelInit(7)", ModelInit(7), 7},
		{"DeviceBatch(1,0,0)", DeviceBatch(1, 0, 0), 8912721772770471735},
		{"DeviceBatch(7,57,99)", DeviceBatch(7, 57, 99), 2982027761310011165},
		{"EdgeCoin(1,0,0)", EdgeCoin(1, 0, 0), -6367894499455814600},
		{"EdgeCoin(7,57,2)", EdgeCoin(7, 57, 2), -1739377423560844643},
		{"Probe(1,0,0)", Probe(1, 0, 0), 3082012663785546636},
		{"Probe(7,57,99)", Probe(7, 57, 99), 4761357149399760766},
		{"MobilityDevice(1,MARK,0)", MobilityDevice(1, 0x4d41524b, 0), 8990445519054062005},
		{"MobilityDevice(7,LEVY,99)", MobilityDevice(7, 0x4c455659, 99), 267502832330398372},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestSeedStreamsDistinct: no two (stream, key) pairs of a 100-edge ×
// 1,000-device × 100-step run share a seed, so no role's draws replay
// another's. The additive recipes internal/fed used before the table did
// collide: seed+11 + step·1009 + edge (coins) met seed+100+host + device·311
// (minibatches) at step 1, edge 13+host, device 3.
func TestSeedStreamsDistinct(t *testing.T) {
	const edges, devices, steps = 100, 1000, 100
	type key struct {
		stream string
		a, b   int64
	}
	for _, run := range []int64{1, 7} {
		seen := make(map[int64]key, steps*(2*devices+edges)+3*devices+1)
		add := func(seed int64, k key) {
			if prev, dup := seen[seed]; dup {
				t.Fatalf("run %d: %v and %v share seed %d", run, prev, k, seed)
			}
			seen[seed] = k
		}
		add(ModelInit(run), key{stream: "ModelInit"})
		for m := 0; m < devices; m++ {
			for _, model := range []int64{0x4d41524b, 0x57415950, 0x4c455659} {
				add(MobilityDevice(run, model, m), key{"MobilityDevice", model, int64(m)})
			}
		}
		for s := 0; s < steps; s++ {
			for n := 0; n < edges; n++ {
				add(EdgeCoin(run, s, n), key{"EdgeCoin", int64(s), int64(n)})
			}
			for m := 0; m < devices; m++ {
				add(DeviceBatch(run, s, m), key{"DeviceBatch", int64(s), int64(m)})
				add(Probe(run, s, m), key{"Probe", int64(s), int64(m)})
			}
		}
	}
}

// TestSeedDomainsDisjoint extends TestSeedStreamsDistinct's exhaustive check
// to the grid a fleet run spans — steps ≤ 2,000, edges ≤ 1,000, devices ≤
// 100,000: some 2·10⁸ seeds, too many to hold — by using how Mix is built.
// Its last fold, x ↦ (x ^ key)·prime, is a bijection of the word, so two
// seeds whose last keys are below 2¹⁷ can only meet if their prefixes (the
// fold of everything before the last key) agree above bit 17. The test
// checks that structure on samples, then that every (stream, leading keys)
// prefix of the grid is distinct above bit 17. Before the streams had domain
// tags this failed: EdgeCoin(t+6, n) was Probe(t, n−200).
func TestSeedDomainsDisjoint(t *testing.T) {
	const (
		steps, edges, devices = 2000, 1000, 100_000
		keyBits               = 17 // 2¹⁷ > devices ≥ every last key of the grid
		prime                 = 1099511628211
	)
	if devices >= 1<<keyBits || edges >= 1<<keyBits || steps >= 1<<keyBits {
		t.Fatal("grid exceeds keyBits")
	}
	for _, parts := range [][]int64{{1, tagEdgeCoin, 57}, {7, tagProbe, 1999}, {-9, 0x4c455659}} {
		for _, key := range []int64{0, 1, devices - 1} {
			if got, want := Mix(append(parts[:len(parts):len(parts)], key)...), (Mix(parts...)^key)*prime; got != want {
				t.Fatalf("Mix(%v, %d) = %d, want (Mix(%v)^%d)·prime = %d", parts, key, got, parts, key, want)
			}
		}
	}
	// prime⁻¹ mod 2⁶⁴ by Newton's iteration, to state ModelInit(run) = run as
	// a fold too: run = (run·prime⁻¹ ^ 0)·prime.
	inv := int64(prime)
	for i := 0; i < 6; i++ {
		inv *= 2 - prime*inv
	}
	if inv*prime != 1 {
		t.Fatalf("prime⁻¹ = %d is not an inverse", inv)
	}
	for _, run := range []int64{1, 7, 42, -9} {
		prefixes := map[int64]string{}
		add := func(prefix int64, name string) {
			if prev, dup := prefixes[prefix>>keyBits]; dup {
				t.Fatalf("run %d: %s and %s can share a seed: prefixes agree above bit %d", run, prev, name, keyBits)
			}
			prefixes[prefix>>keyBits] = name
		}
		add(ModelInit(run)*inv, "ModelInit")
		for _, model := range []int64{0x4d41524b, 0x57415950, 0x4c455659} {
			add(Mix(run, model), fmt.Sprintf("MobilityDevice(%#x, ·)", model))
		}
		for s := int64(0); s < steps; s++ {
			add(Mix(run, tagDeviceBatch, s), fmt.Sprintf("DeviceBatch(%d, ·)", s))
			add(Mix(run, tagEdgeCoin, s), fmt.Sprintf("EdgeCoin(%d, ·)", s))
			add(Mix(run, tagProbe, s), fmt.Sprintf("Probe(%d, ·)", s))
		}
	}
}

// TestStreamMatchesPublishedSplitmix64 checks Stream against the reference
// vector of Vigna's splitmix64.c at state 1234567.
func TestStreamMatchesPublishedSplitmix64(t *testing.T) {
	s := Stream(1234567)
	for i, want := range []uint64{
		6457827717110365317, 3203168211198807973, 9817491932198370423,
		4593380528125082431, 16408922859458223821,
	} {
		if got := s.Uint64(); got != want {
			t.Fatalf("draw %d = %d, want %d", i, got, want)
		}
	}
	s.Seed(1234567)
	if got := s.Int63(); got != 6457827717110365317>>1 {
		t.Fatalf("Int63 after Seed = %d, want the first word's top 63 bits", got)
	}
}

// TestStreamDrawsInRange checks the direct draw methods the mobility steppers
// use: Float64 in [0, 1), Intn/Int63n inside their bound and hitting all of
// a small one, a panic on a non-positive bound.
func TestStreamDrawsInRange(t *testing.T) {
	s := Stream(3)
	var hit [7]bool
	for i := 0; i < 10_000; i++ {
		if f := s.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
		hit[s.Intn(len(hit))] = true
		if v := s.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n(2^40) = %d", v)
		}
	}
	if hit != [7]bool{true, true, true, true, true, true, true} {
		t.Fatalf("Intn(7) missed a value: %v", hit)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(0) did not panic")
		}
	}()
	s.Int63n(0)
}

// TestReseedAllocatesNothing: a keyed stream costs its 8 bytes once. Seed on
// the Stream and on the *rand.Rand over it, followed by a draw, allocate
// nothing — the engine reseeds one stream per (step, edge). (That a reseeded
// stream equals a fresh one is hfl's TestReseededRNGMatchesFreshSource.)
func TestReseedAllocatesNothing(t *testing.T) {
	var (
		s    Stream
		r    = NewRand(0)
		k    int
		sink float64
	)
	if n := testing.AllocsPerRun(1000, func() {
		k++
		s.Seed(EdgeCoin(1, k, 3))
		sink += s.Float64()
		r.Seed(EdgeCoin(1, k, 4))
		sink += r.Float64() + float64(r.Intn(10))
	}); n != 0 {
		t.Fatalf("reseed + draw allocates %v objects, want 0 (sink %v)", n, sink)
	}
}

// chiSquare bins draws (each in [0, bins)) and returns Pearson's statistic
// against the uniform distribution.
func chiSquare(bins int, draws []int) float64 {
	counts := make([]int, bins)
	for _, d := range draws {
		counts[d]++
	}
	want := float64(len(draws)) / float64(bins)
	x2 := 0.0
	for _, c := range counts {
		x2 += (float64(c) - want) * (float64(c) - want) / want
	}
	return x2
}

// TestKeyedStreamsUniform guards the one way a keyed small-state generator
// fails: correlated seeds. The first Float64 of 20,000 DeviceBatch streams
// (step 0, one per device) must be uniform, and the first draws of streams at adjacent EdgeCoin keys
// (next edge, next step) must be jointly uniform — Pearson's χ² over 64 cells
// (63 degrees of freedom) under the 99.9% point, 103.4. The inputs are fixed,
// so the verdict is too.
func TestKeyedStreamsUniform(t *testing.T) {
	const bins, limit = 64, 103.4
	first := func(seed int64) float64 { return NewRand(seed).Float64() }

	draws := make([]int, 20_000)
	for m := range draws {
		draws[m] = int(first(DeviceBatch(1, 0, m)) * bins)
	}
	if x2 := chiSquare(bins, draws); x2 > limit {
		t.Errorf("first draw of %d DeviceBatch streams: χ² = %.1f > %.1f", len(draws), x2, limit)
	}

	const steps, edges = 100, 200
	for _, adj := range []struct {
		name   string
		ds, de int
	}{{"next edge", 0, 1}, {"next step", 1, 0}} {
		draws = draws[:0]
		for s := 0; s < steps; s++ {
			for n := 0; n < edges; n++ {
				a, b := first(EdgeCoin(1, s, n)), first(EdgeCoin(1, s+adj.ds, n+adj.de))
				draws = append(draws, int(a*8)*8+int(b*8))
			}
		}
		if x2 := chiSquare(bins, draws); x2 > limit {
			t.Errorf("EdgeCoin key and its %s, %d pairs: χ² = %.1f > %.1f", adj.name, len(draws), x2, limit)
		}
	}
}
