// Package codec implements the wire-efficiency layer of the distributed
// deployment (DESIGN.md §6): compact encodings of the model parameter
// vectors exchanged between device hosts, edge servers and the cloud.
//
// The observation the package exploits is that almost every transfer in
// hierarchical federated learning is *close to a vector the receiver
// already holds* — the edge base model a device just trained from, the
// previous step's base, the last global model the cloud distributed.
// SchemeDelta encodes against such a shared baseline: XORing the IEEE-754
// bit patterns zeroes the sign, the exponent and the agreeing mantissa
// prefix of every parameter, cutting the XORed words into byte planes turns
// those zeroed bits into constant or low-entropy planes, and the entropy
// stage (planes.go) packs each plane in the cheapest of four modes — const,
// stored, its own canonical Huffman code (huff.go), or a DEFLATE stream. The
// pipeline is exactly invertible, so the decoder recovers the original
// float64s bit for bit — NaN payloads, signed zeros and denormals included —
// and a run over the delta path follows the same learning trajectory as one
// over raw vectors.
//
// Baselines are negotiated by ID: the sender names the shared vector in
// Blob.Baseline and the receiver must hold the same bits under that ID
// (internal/fed installs them with the Device.SetBase RPC). Baseline 0 is
// the implicit all-zeros vector, so a fresh stream can always start without
// negotiation.
//
// Two lossy schemes trade fidelity for further reduction on finite-valued
// vectors: SchemeFloat32 casts to float32 before the delta (2× before
// compression), and SchemeInt8 range-quantizes the residual against the
// baseline to one byte per parameter, with sender-side error feedback so
// quantization errors cancel over successive transfers instead of
// accumulating. Both are opt-in; the default path is lossless.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrUnknownBaseline reports that a blob references a baseline vector the
// decoder does not hold. Callers detect it with errors.Is locally and by
// substring across net/rpc (which flattens errors to strings) and recover
// by resending without a baseline.
var ErrUnknownBaseline = errors.New("codec: unknown baseline")

// Scheme selects a wire encoding. The zero value is SchemeDelta, the
// lossless default path.
type Scheme uint8

const (
	// SchemeDelta XORs the parameters' float64 bit patterns against the
	// baseline (all zeros when Blob.Baseline == 0) and packs the result
	// byte plane by byte plane. Lossless: decodes bit-exactly.
	SchemeDelta Scheme = iota
	// SchemeRaw is the uncompressed format — eight little-endian bytes per
	// parameter, no baseline, no compression: the lossless reference the
	// other schemes' payload bytes are measured against.
	SchemeRaw
	// SchemeFloat32 casts each parameter to float32 and delta-encodes the
	// 32-bit patterns against the float32-cast baseline. Lossy: decoding
	// yields float64(float32(v)). Assumes finite values.
	SchemeFloat32
	// SchemeInt8 range-quantizes the residual params−baseline (the raw
	// values when there is no baseline) to one byte per parameter plus a
	// 16-byte range header. With an error-feedback buffer the quantization
	// error is carried into the next encode instead of being lost. Assumes
	// finite values.
	SchemeInt8

	schemeCount
)

// String names the scheme as accepted by ParseScheme.
func (s Scheme) String() string {
	switch s {
	case SchemeDelta:
		return "delta"
	case SchemeRaw:
		return "raw"
	case SchemeFloat32:
		return "float32"
	case SchemeInt8:
		return "int8"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// Validate reports whether the scheme is known.
func (s Scheme) Validate() error {
	if s >= schemeCount {
		return fmt.Errorf("codec: unknown scheme %d", uint8(s))
	}
	return nil
}

// Lossless reports whether the scheme decodes bit-exactly.
func (s Scheme) Lossless() bool { return s == SchemeDelta || s == SchemeRaw }

// ParseScheme maps a CLI/config name to a scheme.
func ParseScheme(name string) (Scheme, error) {
	for s := Scheme(0); s < schemeCount; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("codec: unknown scheme %q (want delta | raw | float32 | int8)", name)
}

// Schemes lists every wire scheme, lossless first.
func Schemes() []Scheme {
	return []Scheme{SchemeDelta, SchemeRaw, SchemeFloat32, SchemeInt8}
}

// Blob is one encoded parameter vector as it travels over the wire.
type Blob struct {
	// Scheme is the encoding of Data; decoders dispatch on this field.
	Scheme Scheme
	// Baseline identifies the shared vector the payload was encoded
	// against; 0 is the implicit all-zeros baseline.
	Baseline uint64
	// Count is the number of parameters in the vector.
	Count int
	// Data is the scheme-specific payload.
	Data []byte
}

// Encode packs params into a Blob under the given scheme. baseline and
// baseID name the shared vector to delta against and must be given together
// (nil and 0 for none); SchemeRaw ignores them. ef, when non-nil, is the
// sender-side error-feedback buffer of the stream — SchemeInt8 adds it to
// the residual before quantizing and overwrites it with the new quantization
// error; lossless schemes leave it untouched.
func Encode(scheme Scheme, params, baseline []float64, baseID uint64, ef []float64) (Blob, error) {
	if err := scheme.Validate(); err != nil {
		return Blob{}, err
	}
	if (baseline == nil) != (baseID == 0) {
		return Blob{}, fmt.Errorf("codec: baseline vector and baseline id must be given together")
	}
	if baseline != nil && len(baseline) != len(params) {
		return Blob{}, fmt.Errorf("codec: baseline length %d != params length %d", len(baseline), len(params))
	}
	if ef != nil && len(ef) != len(params) {
		return Blob{}, fmt.Errorf("codec: error-feedback length %d != params length %d", len(ef), len(params))
	}
	n := len(params)
	switch scheme {
	case SchemeRaw:
		data := make([]byte, 8*n)
		for i, p := range params {
			binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(p))
		}
		return Blob{Scheme: SchemeRaw, Count: n, Data: data}, nil

	case SchemeDelta:
		s := scratchPool.Get().(*scratch)
		defer scratchPool.Put(s)
		s.words = grow(s.words, n)
		for i, p := range params {
			u := math.Float64bits(p)
			if baseline != nil {
				u ^= math.Float64bits(baseline[i])
			}
			s.words[i] = u
		}
		return s.pack(SchemeDelta, baseID, nil, 8)

	case SchemeFloat32:
		s := scratchPool.Get().(*scratch)
		defer scratchPool.Put(s)
		s.words = grow(s.words, n)
		for i, p := range params {
			u := math.Float32bits(float32(p))
			if baseline != nil {
				u ^= math.Float32bits(float32(baseline[i]))
			}
			s.words[i] = uint64(u)
		}
		return s.pack(SchemeFloat32, baseID, nil, 4)

	default: // SchemeInt8
		return encodeInt8(params, baseline, baseID, ef)
	}
}

// Decode unpacks a Blob. baseline must be the vector named by b.Baseline
// (nil when b.Baseline == 0); passing a mismatched pair is an error.
func Decode(b Blob, baseline []float64) ([]float64, error) {
	if err := b.Scheme.Validate(); err != nil {
		return nil, err
	}
	if (baseline == nil) != (b.Baseline == 0) {
		return nil, fmt.Errorf("codec: blob baseline %d mismatches supplied vector (have=%v): %w",
			b.Baseline, baseline != nil, ErrUnknownBaseline)
	}
	if baseline != nil && len(baseline) != b.Count {
		return nil, fmt.Errorf("codec: baseline length %d != blob count %d", len(baseline), b.Count)
	}
	if b.Count < 0 {
		return nil, fmt.Errorf("codec: negative parameter count %d", b.Count)
	}
	n := b.Count
	switch b.Scheme {
	case SchemeRaw:
		if len(b.Data) != 8*n {
			return nil, fmt.Errorf("codec: raw blob has %d bytes for %d params", len(b.Data), n)
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b.Data[8*i:]))
		}
		return out, nil

	case SchemeDelta:
		s := scratchPool.Get().(*scratch)
		defer scratchPool.Put(s)
		if err := s.unpack(b.Data, 8, n); err != nil {
			return nil, err
		}
		out := make([]float64, n)
		s.join(out, baseline)
		return out, nil

	case SchemeFloat32:
		s := scratchPool.Get().(*scratch)
		defer scratchPool.Put(s)
		if err := s.unpack(b.Data, 4, n); err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			u := s.word32(i)
			if baseline != nil {
				u ^= math.Float32bits(float32(baseline[i]))
			}
			out[i] = float64(math.Float32frombits(u))
		}
		return out, nil

	default: // SchemeInt8
		return decodeInt8(b, baseline)
	}
}

// encodeInt8 quantizes the residual params−baseline(+ef) — or the raw
// values when baseline is nil — to the byte range of its own min/max. The
// payload is a verbatim 16-byte header storing the range, then the quantized
// bytes as one packed plane; the quantization error of each parameter lands
// in ef for the stream's next encode.
func encodeInt8(params, baseline []float64, baseID uint64, ef []float64) (Blob, error) {
	n := len(params)
	res := make([]float64, n)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, p := range params {
		r := p
		if baseline != nil {
			r -= baseline[i]
		}
		if ef != nil {
			r += ef[i]
		}
		res[i] = r
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if n == 0 {
		lo, hi = 0, 0
	}
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsNaN(lo) || math.IsNaN(hi) {
		return Blob{}, fmt.Errorf("codec: int8 quantization needs finite residuals (range [%v, %v])", lo, hi)
	}
	span := hi - lo
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.words = grow(s.words, n)
	var header [16]byte
	binary.LittleEndian.PutUint64(header[0:], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(header[8:], math.Float64bits(hi))
	for i, r := range res {
		q := 0
		if span > 0 {
			q = int(math.Round((r - lo) / span * 255))
			if q < 0 {
				q = 0
			} else if q > 255 {
				q = 255
			}
		}
		s.words[i] = uint64(q)
		if ef != nil {
			dq := lo
			if span > 0 {
				dq = lo + span*float64(q)/255
			}
			ef[i] = r - dq
		}
	}
	return s.pack(SchemeInt8, baseID, header[:], 1)
}

func decodeInt8(b Blob, baseline []float64) ([]float64, error) {
	if len(b.Data) < 16 {
		return nil, fmt.Errorf("codec: int8 blob has %d bytes, want a 16-byte range header", len(b.Data))
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if err := s.unpack(b.Data[16:], 1, b.Count); err != nil {
		return nil, err
	}
	lo := math.Float64frombits(binary.LittleEndian.Uint64(b.Data[0:]))
	hi := math.Float64frombits(binary.LittleEndian.Uint64(b.Data[8:]))
	span := hi - lo
	out := make([]float64, b.Count)
	for i := range out {
		v := lo
		if span > 0 {
			v = lo + span*float64(s.word32(i))/255
		}
		if baseline != nil {
			v += baseline[i]
		}
		out[i] = v
	}
	return out, nil
}
