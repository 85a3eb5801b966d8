package codec

import (
	"fmt"
	"math"
)

// This file is the float32-lane entry point to the wire format (DESIGN.md
// §10): senders holding float32 parameter vectors encode them under
// SchemeFloat32 directly, and receivers can decode back to float32, with no
// round-trip through float64 on either side.
//
// The payload is bit-for-bit the one Encode produces for SchemeFloat32 —
// Encode casts each float64 parameter to float32 before shuffling, so
// Encode32(v32) and Encode(widen(v32)) emit identical blobs. The two APIs
// therefore interoperate in both directions: a blob from either encoder
// decodes with either decoder, as long as the supplied baseline casts to the
// same float32 values.

// Encode32 packs a float32 parameter vector into a SchemeFloat32 Blob.
// baseline and baseID name the shared vector to delta against and must be
// given together (nil and 0 for none), mirroring Encode.
func Encode32(params, baseline []float32, baseID uint64) (Blob, error) {
	if (baseline == nil) != (baseID == 0) {
		return Blob{}, fmt.Errorf("codec: baseline vector and baseline id must be given together")
	}
	if baseline != nil && len(baseline) != len(params) {
		return Blob{}, fmt.Errorf("codec: baseline length %d != params length %d", len(baseline), len(params))
	}
	n := len(params)
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.words = grow(s.words, n)
	for i, p := range params {
		u := math.Float32bits(p)
		if baseline != nil {
			u ^= math.Float32bits(baseline[i])
		}
		s.words[i] = uint64(u)
	}
	return s.pack(SchemeFloat32, baseID, nil, 4)
}

// Decode32 unpacks a SchemeFloat32 Blob into float32 values — exactly the
// bits the sender shipped, with no widening. baseline must be the vector
// named by b.Baseline (nil when b.Baseline == 0).
func Decode32(b Blob, baseline []float32) ([]float32, error) {
	if b.Scheme != SchemeFloat32 {
		return nil, fmt.Errorf("codec: Decode32 requires %v blobs, got %v", SchemeFloat32, b.Scheme)
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
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if err := s.unpack(b.Data, 4, b.Count); err != nil {
		return nil, err
	}
	out := make([]float32, b.Count)
	for i := range out {
		u := s.word32(i)
		if baseline != nil {
			u ^= math.Float32bits(baseline[i])
		}
		out[i] = math.Float32frombits(u)
	}
	return out, nil
}
