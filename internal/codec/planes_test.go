package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
)

// planeModes walks a payload's plane directory and returns the mode byte of
// every plane.
func planeModes(t testing.TB, data []byte, width, n int) []byte {
	t.Helper()
	var modes []byte
	for p := 0; p < width && n > 0; p++ {
		mode := data[0]
		data = data[1:]
		switch mode {
		case modeConst:
			data = data[1:]
		case modeStored:
			data = data[n:]
		case modeDeflate:
			size, k := binary.Uvarint(data)
			data = data[k+int(size):]
		default:
			t.Fatalf("plane %d: unknown mode %d", p, mode)
		}
		modes = append(modes, mode)
	}
	if len(data) != 0 {
		t.Fatalf("%d trailing payload bytes", len(data))
	}
	return modes
}

// vectorClasses builds the shapes of vector the protocol ships, at length n:
// a baseline-free model, an SGD-like delta, a update sum, a sparse change, an
// all-equal vector, and the non-finite / denormal bit patterns.
func vectorClasses(rng *rand.Rand, n int) []transfer {
	model := make([]float64, n)
	stepped := make([]float64, n)
	sum := make([]float64, n)
	sparse := make([]float64, n)
	equal := make([]float64, n)
	special := make([]float64, n)
	for i := range model {
		model[i] = 0.1 * rng.NormFloat64()
		stepped[i] = model[i] * (1 + 1e-3*rng.NormFloat64())
		sum[i] = 1e-2 * rng.NormFloat64()
		sparse[i] = model[i]
		if rng.Intn(100) == 0 {
			sparse[i] += rng.NormFloat64()
		}
		equal[i] = math.Pi
		special[i] = adversarial[rng.Intn(len(adversarial))]
	}
	return []transfer{
		{class: "model", params: model},
		{class: "delta", params: stepped, baseline: model},
		{class: "sum", params: sum},
		{class: "sparse", params: sparse, baseline: model},
		{class: "equal", params: equal},
		{class: "equal-delta", params: equal, baseline: equal},
		{class: "special", params: special},
		{class: "special-delta", params: special, baseline: model},
	}
}

// TestPlaneRoundtripEveryModeAndSize sweeps the lossless path over the edge
// sizes (empty, sub-word, the repo's three architectures) and every vector
// class: decodes are bit-exact, encoding is deterministic, and between them
// the cases exercise every plane mode.
func TestPlaneRoundtripEveryModeAndSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[byte]int{}
	for _, n := range []int{0, 1, 7, 8, 9, 2410, 8554, 18346} {
		for _, tr := range vectorClasses(rng, n) {
			label := fmt.Sprintf("%s/n=%d", tr.class, n)
			var id uint64
			if tr.baseline != nil {
				id = 3
			}
			blob, err := Encode(SchemeDelta, tr.params, tr.baseline, id, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			again, err := Encode(SchemeDelta, tr.params, tr.baseline, id, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !bytes.Equal(blob.Data, again.Data) {
				t.Fatalf("%s: two encodes of one vector differ", label)
			}
			got, err := Decode(blob, tr.baseline)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			bitsEqual(t, got, tr.params, label)
			for _, m := range planeModes(t, blob.Data, 8, n) {
				seen[m]++
			}
			if n == 0 && len(blob.Data) != 0 {
				t.Fatalf("%s: %d payload bytes", label, len(blob.Data))
			}
		}
	}
	for _, m := range []byte{modeConst, modeStored, modeDeflate} {
		if seen[m] == 0 {
			t.Fatalf("mode %d never chosen (seen %v)", m, seen)
		}
	}
}

// TestPlaneModeRule pins the histogram rule on planes built for it: constant
// → const, uniform noise → stored, a skewed alphabet → Huffman-coded DEFLATE,
// long zero runs → DEFLATE far below Huffman's one-bit-per-byte floor.
func TestPlaneModeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 4096
	cases := []struct {
		name    string
		byteAt  func(i int) byte
		mode    byte
		maxSize int
	}{
		{"const", func(int) byte { return 0x5A }, modeConst, 2},
		{"noise", func(int) byte { return byte(rng.Intn(256)) }, modeStored, n + 1},
		{"skewed", func(int) byte { return byte(rng.Intn(4) * rng.Intn(4)) }, modeDeflate, n / 2},
		{"runs", func(i int) byte { return byte(i % 512 / 511) }, modeDeflate, n / 32},
	}
	for _, c := range cases {
		s := new(scratch)
		s.words = make([]uint64, n)
		for i := range s.words {
			s.words[i] = uint64(c.byteAt(i))
		}
		want := append([]uint64(nil), s.words...)
		blob, err := s.pack(SchemeInt8, 0, nil, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data := blob.Data
		if data[0] != c.mode || len(data) > c.maxSize {
			t.Fatalf("%s: mode %d in %d bytes, want mode %d in at most %d", c.name, data[0], len(data), c.mode, c.maxSize)
		}
		if err := s.unpack(data, 1, n); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range want {
			if s.words[i] != want[i] {
				t.Fatalf("%s: byte %d = %x, want %x", c.name, i, s.words[i], want[i])
			}
		}
	}
}

// TestUnpackRejectsMalformedPayloads: unknown modes, truncated planes,
// DEFLATE streams of the wrong length and trailing bytes are all errors.
func TestUnpackRejectsMalformedPayloads(t *testing.T) {
	const n = 64
	ramp := make([]float64, n)
	for i := range ramp {
		ramp[i] = math.Float64frombits(uint64(i%4) << 56) // plane 7 is DEFLATE-coded, the rest const
	}
	good, err := Encode(SchemeDelta, ramp, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	modes := planeModes(t, good.Data, 8, n)
	if modes[7] != modeDeflate {
		t.Fatalf("test vector's top plane has mode %d, want DEFLATE", modes[7])
	}
	mutate := func(f func(d []byte) []byte) Blob {
		b := good
		b.Data = f(append([]byte(nil), good.Data...))
		return b
	}
	stream := len(good.Data) - 14 - 2 // seven const planes, mode byte, one-byte length
	cases := map[string]Blob{
		"unknown mode":    mutate(func(d []byte) []byte { d[0] = 9; return d }),
		"truncated":       mutate(func(d []byte) []byte { return d[:len(d)-3] }),
		"trailing bytes":  mutate(func(d []byte) []byte { return append(d, 0) }),
		"short stored":    mutate(func(d []byte) []byte { d[0] = modeStored; return d }),
		"length past end": mutate(func(d []byte) []byte { d[15] = byte(stream + 1); return d }),
		"garbage in stream": mutate(func(d []byte) []byte {
			d[15] = byte(stream + 1) // the stream ends one byte before its declared length
			return append(d, 0)
		}),
		"stream too long":  {Scheme: SchemeDelta, Count: n - 1, Data: good.Data},
		"stream too short": {Scheme: SchemeDelta, Count: n + 1, Data: good.Data},
		"bad varint": mutate(func(d []byte) []byte {
			return append(d[:15], bytes.Repeat([]byte{0xFF}, 11)...)
		}),
		"empty vector with payload": {Scheme: SchemeDelta, Count: 0, Data: []byte{modeConst, 0}},
		"int8 without header":       {Scheme: SchemeInt8, Count: 0, Data: make([]byte, 15)},
	}
	for name, blob := range cases {
		if _, err := Decode(blob, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := Decode(good, nil); err != nil {
		t.Fatalf("unmutated blob rejected: %v", err)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, kv := range info.Settings {
		if kv.Key == "-race" {
			return kv.Value == "true"
		}
	}
	return false
}

// TestEncodeSteadyStateAllocs: with the scratch pooled, an Encode allocates
// the payload it returns and nothing that scales with the call count.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool sheds pooled scratch at random under the race detector")
	}
	rng := rand.New(rand.NewSource(15))
	for _, tr := range vectorClasses(rng, 8554)[:4] {
		var id uint64
		if tr.baseline != nil {
			id = 1
		}
		for _, scheme := range []Scheme{SchemeDelta, SchemeFloat32, SchemeInt8} {
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := Encode(scheme, tr.params, tr.baseline, id, nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 3 {
				t.Errorf("%v/%s: %.0f allocs per Encode, want at most 3", scheme, tr.class, allocs)
			}
		}
	}
}
