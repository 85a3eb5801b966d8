package codec

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// adversarial holds the float64 special cases the lossless contract must
// preserve bit-for-bit.
var adversarial = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.NaN(),
	math.Float64frombits(0x7FF8DEADBEEF0001), // quiet NaN with payload
	math.Float64frombits(0x7FF0000000000001), // signalling-NaN bit pattern
	math.Float64frombits(1),                  // smallest positive denormal
	math.Float64frombits(0x000FFFFFFFFFFFFF), // largest denormal
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	1.0, -1.0, math.Pi, 1e-300, -1e300,
}

func bitsEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: param %d = %x, want %x", label,
				i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestLosslessRoundtripBitExact drives the lossless schemes over random and
// adversarial vectors, with and without a baseline, and demands bit
// identity. Random values are drawn as raw bit patterns, so the space of
// NaN payloads, denormals and infinities is sampled too.
func TestLosslessRoundtripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		params := make([]float64, n)
		baseline := make([]float64, n)
		for i := range params {
			if trial%2 == 0 {
				params[i] = math.Float64frombits(rng.Uint64())
				baseline[i] = math.Float64frombits(rng.Uint64())
			} else {
				params[i] = rng.NormFloat64()
				baseline[i] = params[i] + 1e-4*rng.NormFloat64()
			}
		}
		copy(params, adversarial[:min(n, len(adversarial))])
		for _, scheme := range []Scheme{SchemeDelta, SchemeRaw} {
			// Without baseline.
			blob, err := Encode(scheme, params, nil, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(blob, nil)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, got, params, scheme.String()+" no-baseline")
			// With baseline (raw ignores it by contract).
			if scheme == SchemeRaw {
				continue
			}
			blob, err = Encode(scheme, params, baseline, 42, nil)
			if err != nil {
				t.Fatal(err)
			}
			if blob.Baseline != 42 {
				t.Fatalf("blob baseline %d, want 42", blob.Baseline)
			}
			got, err = Decode(blob, baseline)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, got, params, scheme.String()+" baseline")
		}
	}
}

// TestDeltaCompressesSGDLikeVectors checks the delta path shrinks the
// payload on its target workloads. Low mantissa bits of SGD-perturbed
// float64s are incompressible noise, so a vector a relative ~1e-3 from its
// baseline only zeroes the sign/exponent/mantissa-prefix planes (measured
// ~1.1-1.25x on real MLP training vectors — the big wire savings in
// internal/fed are structural, not entropy); the ratio grows as vectors
// agree more and becomes extreme for identical ones.
func TestDeltaCompressesSGDLikeVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4096
	base := make([]float64, n)
	params := make([]float64, n)
	for i := range base {
		base[i] = 0.3 * rng.NormFloat64()
		params[i] = base[i] * (1 + 1e-3*rng.NormFloat64())
	}
	raw := 8 * n
	blob, err := Encode(SchemeDelta, params, base, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob.Data) >= raw*15/16 {
		t.Fatalf("delta blob %d bytes, want < %d (raw %d)", len(blob.Data), raw*15/16, raw)
	}
	t.Logf("sgd-like delta: %d -> %d bytes (%.2fx)", raw, len(blob.Data), float64(raw)/float64(len(blob.Data)))

	// An unchanged vector must collapse to almost nothing.
	same, err := Encode(SchemeDelta, base, base, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(same.Data) >= raw/100 {
		t.Fatalf("identical-vector delta blob %d bytes, want < %d", len(same.Data), raw/100)
	}

	// A sparse change (1% of params touched) leaves every plane ~99% zero
	// bytes. Huffman codes no byte in under one bit, so eight such planes
	// cost at least raw/8; raw/6 leaves room for the code headers and still
	// fails a coder that stores even one of them verbatim (n bytes, raw/8).
	sparse := append([]float64(nil), base...)
	for i := 0; i < n/100; i++ {
		sparse[rng.Intn(n)] += rng.NormFloat64()
	}
	sp, err := Encode(SchemeDelta, sparse, base, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Data) >= raw/6 {
		t.Fatalf("sparse-change delta blob %d bytes, want < %d", len(sp.Data), raw/6)
	}
}

func TestFloat32RoundtripIsCastExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 257
	params := make([]float64, n)
	base := make([]float64, n)
	for i := range params {
		params[i] = rng.NormFloat64() * 10
		base[i] = params[i] + 0.01*rng.NormFloat64()
	}
	for _, withBase := range []bool{false, true} {
		var blob Blob
		var err error
		if withBase {
			blob, err = Encode(SchemeFloat32, params, base, 9, nil)
		} else {
			blob, err = Encode(SchemeFloat32, params, nil, 0, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		bl := base
		if !withBase {
			bl = nil
		}
		got, err := Decode(blob, bl)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			want := float64(float32(params[i]))
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("withBase=%v param %d = %v, want float32 cast %v", withBase, i, got[i], want)
			}
		}
	}
}

func TestInt8QuantizationBoundAndErrorFeedback(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 512
	params := make([]float64, n)
	base := make([]float64, n)
	for i := range params {
		base[i] = rng.NormFloat64()
		params[i] = base[i] + 0.05*rng.NormFloat64()
	}
	ef := make([]float64, n)
	blob, err := Encode(SchemeInt8, params, base, 5, ef)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob, base)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range params {
		r := params[i] - base[i]
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	step := (hi - lo) / 255
	for i := range got {
		if diff := math.Abs(got[i] - params[i]); diff > step+1e-12 {
			t.Fatalf("param %d off by %v, quantization step %v", i, diff, step)
		}
		if math.Abs(ef[i]) > step+1e-12 {
			t.Fatalf("error feedback %d = %v exceeds step %v", i, ef[i], step)
		}
	}
}

// TestInt8ErrorFeedbackConverges repeatedly transfers the same target over
// one stream: with error feedback the mean of the decoded vectors converges
// to the target (the per-transfer quantization errors telescope).
func TestInt8ErrorFeedbackConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 64
	params := make([]float64, n)
	base := make([]float64, n)
	for i := range params {
		base[i] = rng.NormFloat64()
		params[i] = base[i] + 0.1*rng.NormFloat64()
	}
	ef := make([]float64, n)
	sum := make([]float64, n)
	const rounds = 200
	for k := 0; k < rounds; k++ {
		blob, err := Encode(SchemeInt8, params, base, 1, ef)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(blob, base)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sum {
			sum[i] += got[i]
		}
	}
	for i := range sum {
		mean := sum[i] / rounds
		if math.Abs(mean-params[i]) > 1e-3 {
			t.Fatalf("param %d mean %v, want %v (error feedback not cancelling)", i, mean, params[i])
		}
	}
}

// TestInt8WithoutBaselineQuantizesValues covers the baseline-free int8
// path: the raw values themselves are range-quantized, within one
// quantization step of the original.
func TestInt8WithoutBaselineQuantizesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 256
	params := make([]float64, n)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	blob, err := Encode(SchemeInt8, params, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blob.Scheme != SchemeInt8 || blob.Baseline != 0 {
		t.Fatalf("blob scheme %v baseline %d", blob.Scheme, blob.Baseline)
	}
	got, err := Decode(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range params {
		lo = math.Min(lo, p)
		hi = math.Max(hi, p)
	}
	step := (hi - lo) / 255
	for i := range got {
		if diff := math.Abs(got[i] - params[i]); diff > step+1e-12 {
			t.Fatalf("param %d off by %v, quantization step %v", i, diff, step)
		}
	}
}

func TestInt8RejectsNonFiniteResidual(t *testing.T) {
	params := []float64{1, math.Inf(1)}
	base := []float64{0, 0}
	if _, err := Encode(SchemeInt8, params, base, 1, nil); err == nil {
		t.Fatal("expected error for non-finite residual")
	}
}

func TestSchemeParseAndString(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("ParseScheme(%q) = %v", s.String(), got)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseScheme("zstd"); err == nil {
		t.Fatal("expected error for unknown scheme name")
	}
	if err := Scheme(99).Validate(); err == nil {
		t.Fatal("expected error for unknown scheme value")
	}
}

func TestEncodeValidation(t *testing.T) {
	params := []float64{1, 2}
	if _, err := Encode(Scheme(99), params, nil, 0, nil); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := Encode(SchemeDelta, params, []float64{1}, 1, nil); err == nil {
		t.Fatal("baseline length mismatch accepted")
	}
	if _, err := Encode(SchemeDelta, params, []float64{1, 2}, 0, nil); err == nil {
		t.Fatal("baseline without id accepted")
	}
	if _, err := Encode(SchemeDelta, params, nil, 3, nil); err == nil {
		t.Fatal("id without baseline accepted")
	}
	if _, err := Encode(SchemeInt8, params, []float64{0, 0}, 1, []float64{0}); err == nil {
		t.Fatal("error-feedback length mismatch accepted")
	}
}

func TestDecodeValidation(t *testing.T) {
	params := []float64{1, 2, 3}
	blob, err := Encode(SchemeDelta, params, []float64{0, 0, 0}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline required but absent: ErrUnknownBaseline.
	if _, err := Decode(blob, nil); !errors.Is(err, ErrUnknownBaseline) {
		t.Fatalf("err = %v, want ErrUnknownBaseline", err)
	}
	// Baseline of the wrong length.
	if _, err := Decode(blob, []float64{0}); err == nil {
		t.Fatal("wrong-length baseline accepted")
	}
	// Unexpected baseline for a baseline-free blob.
	raw, err := Encode(SchemeRaw, params, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(raw, []float64{0, 0, 0}); err == nil {
		t.Fatal("spurious baseline accepted")
	}
	// Truncated payloads.
	short := raw
	short.Data = short.Data[:8]
	if _, err := Decode(short, nil); err == nil {
		t.Fatal("truncated raw blob accepted")
	}
	trunc := blob
	trunc.Data = trunc.Data[:len(trunc.Data)/2]
	if _, err := Decode(trunc, []float64{0, 0, 0}); err == nil {
		t.Fatal("truncated delta blob accepted")
	}
	// Declared count shorter than the payload.
	lying := blob
	lying.Count = 2
	if _, err := Decode(lying, []float64{0, 0}); err == nil {
		t.Fatal("over-long payload accepted")
	}
	if _, err := Decode(Blob{Scheme: Scheme(88)}, nil); err == nil {
		t.Fatal("unknown blob scheme accepted")
	}
	// int8 range headers its encoder never writes: inverted or not finite.
	q, err := Encode(SchemeInt8, params, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]float64{{3, 1}, {math.NaN(), 3}, {1, math.NaN()}, {1, math.Inf(1)}, {math.Inf(-1), 3}} {
		bad := q
		bad.Data = append([]byte(nil), q.Data...)
		binary.LittleEndian.PutUint64(bad.Data[0:], math.Float64bits(r[0]))
		binary.LittleEndian.PutUint64(bad.Data[8:], math.Float64bits(r[1]))
		if _, err := Decode(bad, nil); err == nil {
			t.Fatalf("int8 range header [%v, %v] accepted", r[0], r[1])
		}
	}
}

func TestEmptyVector(t *testing.T) {
	for _, scheme := range Schemes() {
		blob, err := Encode(scheme, nil, nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(blob, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("scheme %v: %d params from empty vector", scheme, len(got))
		}
	}
}
