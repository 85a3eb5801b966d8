package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
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
		case modeHuff:
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

// schemePlaneModes is planeModes over a blob of any plane-coded scheme.
func schemePlaneModes(t testing.TB, b Blob) []byte {
	t.Helper()
	switch b.Scheme {
	case SchemeFloat32:
		return planeModes(t, b.Data, 4, b.Count)
	case SchemeInt8:
		return planeModes(t, b.Data[16:], 1, b.Count)
	default:
		return planeModes(t, b.Data, 8, b.Count)
	}
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
// sizes (empty, around the coder's four-symbol and 64-bit strides, the repo's
// three architectures) and every vector
// class: decodes are bit-exact, encoding is deterministic, and between them
// the cases exercise every plane mode.
func TestPlaneRoundtripEveryModeAndSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[byte]int{}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 2410, 8554, 18346} {
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
	for _, m := range []byte{modeConst, modeStored, modeHuff} {
		if seen[m] == 0 {
			t.Fatalf("mode %d never chosen (seen %v)", m, seen)
		}
	}
}

// TestPlaneModeRule pins the histogram rule on planes built for it: constant
// → const, uniform noise → stored, a skewed alphabet → huff, and a sign-bit
// plane — two values, one of them a single byte over half — → huff at its
// one-bit-per-byte floor.
func TestPlaneModeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 4096
	shuffled := rng.Perm(n)
	cases := []struct {
		name    string
		byteAt  func(i int) byte
		mode    byte
		maxSize int
	}{
		{"const", func(int) byte { return 0x5A }, modeConst, 2},
		{"noise", func(int) byte { return byte(rng.Intn(256)) }, modeStored, n + 1},
		{"skewed", func(int) byte { return byte(rng.Intn(4) * rng.Intn(4)) }, modeHuff, n / 2},
		{"sign bit", func(i int) byte { return 0x3F | byte(shuffled[i]/(n/2+1))<<7 }, modeHuff, n/8 + 8},
	}
	for _, c := range cases {
		s := new(scratch)
		s.words = make([]uint64, n)
		for i := range s.words {
			s.words[i] = uint64(c.byteAt(i))
		}
		want := append([]uint64(nil), s.words...)
		data := s.pack(nil, SchemeInt8, 0, nil, 1).Data
		if data[0] != c.mode || len(data) > c.maxSize {
			t.Fatalf("%s: mode %d in %d bytes, want mode %d in at most %d", c.name, data[0], len(data), c.mode, c.maxSize)
		}
		if err := s.unpack(data, 1, n); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range want {
			if got := uint64(s.word32(i)); got != want[i] {
				t.Fatalf("%s: byte %d = %x, want %x", c.name, i, got, want[i])
			}
		}
	}
}

// huffBlob is a SchemeDelta blob of n parameters whose seven low planes are
// const zero and whose top plane is a huff body: the given code-length header,
// then stream.
func huffBlob(n int, lengths, stream []byte) Blob {
	data := bytes.Repeat([]byte{modeConst, 0}, 7)
	data = append(data, modeHuff)
	data = binary.AppendUvarint(data, uint64(len(lengths)+len(stream)))
	data = append(append(data, lengths...), stream...)
	return Blob{Scheme: SchemeDelta, Count: n, Data: data}
}

// TestUnpackRejectsMalformedPayloads: unknown modes — mode 2, once a DEFLATE
// stream, among them — truncated planes, coded streams of the wrong length,
// trailing bytes, and every way a huff body's code lengths can fail to be a
// complete 12-bit prefix code are all errors.
func TestUnpackRejectsMalformedPayloads(t *testing.T) {
	const n = 256
	ramp := make([]float64, n)
	for i := range ramp {
		ramp[i] = math.Float64frombits(uint64(i%4) << 56) // plane 7 is huff-coded, the rest const
	}
	good, err := Encode(SchemeDelta, ramp, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := planeModes(t, good.Data, 8, n)[7]; m != modeHuff {
		t.Fatalf("ramp's top plane has mode %d, want huff", m)
	}
	mutate := func(f func(d []byte) []byte) Blob {
		b := good
		b.Data = f(append([]byte(nil), good.Data...))
		return b
	}
	body := len(good.Data) - 14 - 2 // seven const planes, mode byte, one-byte length
	// Two one-bit codes: n code words are n/8 stream bytes.
	pair, bits := []byte{2, 0, 1, 0x11}, make([]byte, n/8)
	cases := map[string]Blob{
		"unknown mode":    mutate(func(d []byte) []byte { d[0] = 9; return d }),
		"truncated":       mutate(func(d []byte) []byte { return d[:len(d)-3] }),
		"trailing bytes":  mutate(func(d []byte) []byte { return append(d, 0) }),
		"short stored":    mutate(func(d []byte) []byte { d[0] = modeStored; return d }),
		"length past end": mutate(func(d []byte) []byte { d[15] = byte(body + 1); return d }),
		"stream ends before its declared length": mutate(func(d []byte) []byte {
			d[15] = byte(body + 1)
			return append(d, 0)
		}),
		"huff count too small": {Scheme: SchemeDelta, Count: n - 8, Data: good.Data},
		"huff count too large": {Scheme: SchemeDelta, Count: n + 8, Data: good.Data},
		"bad varint": mutate(func(d []byte) []byte {
			return append(d[:15], bytes.Repeat([]byte{0xFF}, 11)...)
		}),
		"empty vector with payload": {Scheme: SchemeDelta, Count: 0, Data: []byte{modeConst, 0}},
		"int8 without header":       {Scheme: SchemeInt8, Count: 0, Data: make([]byte, 15)},

		"huff body empty":             huffBlob(n, nil, nil),
		"huff body ends in list":      huffBlob(n, []byte{2, 0, 1}, nil),
		"huff body ends in array":     huffBlob(n, make([]byte, 100), nil),
		"huff over-subscribed":        huffBlob(n, []byte{3, 0, 1, 2, 0x11, 0x01}, bits),
		"huff 13-bit length":          huffBlob(n, []byte{2, 0, 1, 0xD1}, bits),
		"huff incomplete code":        huffBlob(n, []byte{2, 0, 1, 0x21}, bits),
		"huff one-value code":         huffBlob(n, []byte{1, 0, 0x01}, bits),
		"huff values out of order":    huffBlob(n, []byte{2, 1, 0, 0x11}, bits),
		"huff value listed twice":     huffBlob(n, []byte{2, 1, 1, 0x11}, bits),
		"huff empty array":            huffBlob(n, make([]byte, 129), bits),
		"huff truncated stream":       huffBlob(n, pair, bits[:n/8-1]),
		"huff stream ends mid-symbol": huffBlob(n+1, pair, bits),
		"huff stream too long":        huffBlob(n, pair, append(bits, 0)),
		"huff stream a word too long": huffBlob(n, pair, append(bits, make([]byte, 8)...)),
		"huff trailing bytes": func() Blob {
			b := huffBlob(n, pair, bits)
			b.Data = append(b.Data, 0)
			return b
		}(),
	}
	for name, blob := range cases {
		if _, err := Decode(blob, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A well-formed DEFLATE stream of the plane, which the codec once wrote
	// under mode 2, is refused at the directory.
	var deflated bytes.Buffer
	w, err := flate.NewWriter(&deflated, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mode2 := binary.AppendUvarint(append(bytes.Repeat([]byte{modeConst, 0}, 7), 2), uint64(deflated.Len()))
	mode2 = append(mode2, deflated.Bytes()...)
	if _, err := Decode(Blob{Scheme: SchemeDelta, Count: n, Data: mode2}, nil); err == nil || !strings.Contains(err.Error(), "unknown mode 2") {
		t.Errorf("mode-2 plane: err = %v, want unknown mode 2", err)
	}
	for name, blob := range map[string]Blob{"ramp": good, "hand-built huff": huffBlob(n, pair, bits),
		"hand-built huff, spare bits": huffBlob(n-7, pair, bits)} {
		if _, err := Decode(blob, nil); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
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

// TestDecodeSteadyStateAllocs: a Decode allocates the vector it returns and
// nothing else — the tables and planes are pooled.
func TestDecodeSteadyStateAllocs(t *testing.T) {
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
			blob, err := Encode(scheme, tr.params, tr.baseline, id, nil)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := Decode(blob, tr.baseline); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("%v/%s: %.0f allocs per Decode, want 1", scheme, tr.class, allocs)
			}
		}
	}
}

// TestIntoFormsReuseTheirDestination: AppendEncode appends Encode's payload to
// its destination, in place when the capacity suffices, and DecodeInto
// writes Decode's vector into its destination; with reused destinations
// neither allocates beyond int8's residual vector.
func TestIntoFormsReuseTheirDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, tr := range vectorClasses(rng, 8554)[:4] {
		var id uint64
		if tr.baseline != nil {
			id = 1
		}
		for _, scheme := range Schemes() {
			base, bid := tr.baseline, id
			if scheme == SchemeRaw {
				base, bid = nil, 0
			}
			label := fmt.Sprintf("%v/%s", scheme, tr.class)
			want, err := Encode(scheme, tr.params, base, bid, nil)
			if err != nil {
				t.Fatal(err)
			}
			buf := append(make([]byte, 0, 3+len(want.Data)), "hdr"...)
			got, err := AppendEncode(buf, scheme, tr.params, base, bid, nil)
			if err != nil {
				t.Fatal(err)
			}
			if string(got.Data[:3]) != "hdr" || string(got.Data[3:]) != string(want.Data) || &got.Data[0] != &buf[:1][0] {
				t.Fatalf("%s: AppendEncode did not append Encode's payload in place", label)
			}
			vec, err := Decode(want, base)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]float64, len(vec))
			into, err := DecodeInto(dst[:0], want, base)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, into, vec, label+" DecodeInto")
			if &into[0] != &dst[0] {
				t.Fatalf("%s: DecodeInto did not decode in place", label)
			}
			if raceEnabled() {
				continue // sync.Pool sheds pooled scratch at random under the race detector
			}
			limit := 0.0
			if scheme == SchemeInt8 {
				limit = 1 // the residual vector
			}
			if allocs := testing.AllocsPerRun(20, func() {
				if _, err := AppendEncode(buf[:0], scheme, tr.params, base, bid, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := DecodeInto(dst, want, base); err != nil {
					t.Fatal(err)
				}
			}); allocs > limit {
				t.Errorf("%s: %.0f allocs per AppendEncode + DecodeInto, want at most %.0f", label, allocs, limit)
			}
		}
	}
}
