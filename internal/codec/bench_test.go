package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// benchCodec times Encode and Decode of one vector under one scheme. MB/s is
// over the raw float64 bytes; bytes/blob is the payload size.
func benchCodec(b *testing.B, label string, scheme Scheme, params, baseline []float64) {
	n := len(params)
	var id uint64
	if baseline != nil {
		id = 1
	}
	var ef []float64
	if scheme == SchemeInt8 {
		ef = make([]float64, n)
	}
	blob, err := Encode(scheme, params, baseline, id, ef)
	if err != nil {
		b.Fatal(err)
	}
	decBase := baseline
	if blob.Baseline == 0 { // SchemeRaw ignores the baseline
		decBase = nil
	}
	b.Run("encode/"+label, func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Encode(scheme, params, baseline, id, ef); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(blob.Data)), "bytes/blob")
	})
	b.Run("decode/"+label, func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(blob, decBase); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(blob.Data)), "bytes/blob")
	})
}

// BenchmarkCodec times the lossless scheme on the three blob classes fed puts
// on the wire (fedTraffic: a baseline-free model and an update sum, 92% of
// fed_loopback's blobs between them, and the global delta), then every scheme
// on a model against a 1e-3-perturbed baseline at the parameter counts of the
// repo's three architectures (fleet MLP, fed MLP, paper CNN).
func BenchmarkCodec(b *testing.B) {
	traffic := fedTraffic(b, 3)
	for _, tr := range traffic[len(traffic)-3:] { // the last round's model and sum, and the delta
		benchCodec(b, "fed-"+tr.class, SchemeDelta, tr.params, tr.baseline)
	}
	for _, n := range []int{2410, 8554, 18346} {
		rng := rand.New(rand.NewSource(int64(n)))
		baseline := make([]float64, n)
		params := make([]float64, n)
		for i := range params {
			baseline[i] = 0.1 * rng.NormFloat64()
			params[i] = baseline[i] * (1 + 1e-3*rng.NormFloat64())
		}
		for _, scheme := range Schemes() {
			benchCodec(b, fmt.Sprintf("%v/n=%d", scheme, n), scheme, params, baseline)
		}
	}
}

// BenchmarkPlaneCoder times the huff coder against the compress/flate
// Huffman-only coder it replaced, one plane at a time, on the two planes every
// fed model blob codes: 6 (exponent tail and mantissa head, ~190 values) and 7
// (sign and exponent head, ~4 values). The headline is ns/symbol.
func BenchmarkPlaneCoder(b *testing.B) {
	traffic := fedTraffic(b, 3)
	planes := planesOf(traffic[len(traffic)-3])
	perSymbol := func(b *testing.B, n int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/symbol")
	}
	for _, p := range []int{6, 7} {
		plane := planes[p]
		n := len(plane)
		var hist [256]uint32
		for _, v := range plane {
			hist[v]++
		}
		h := new(huffCoder)
		body := make([]byte, h.build(&hist)+8)
		b.Run(fmt.Sprintf("encode/huff/plane=%d", p), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				h.build(&hist)
				h.encode(body, plane)
			}
			perSymbol(b, n)
		})
		body = body[:len(body)-8]
		got := make([]byte, n)
		b.Run(fmt.Sprintf("decode/huff/plane=%d", p), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				at, err := h.readLengths(body)
				if err != nil {
					b.Fatal(err)
				}
				h.setTable()
				if err := h.decode(got, body[at:]); err != nil {
					b.Fatal(err)
				}
			}
			perSymbol(b, n)
		})

		var stream bytes.Buffer
		w, err := flate.NewWriter(&stream, flate.HuffmanOnly)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("encode/flate/plane=%d", p), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				stream.Reset()
				w.Reset(&stream)
				if _, err := w.Write(plane); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
			perSymbol(b, n)
		})
		var src bytes.Reader
		r := flate.NewReader(&src)
		b.Run(fmt.Sprintf("decode/flate/plane=%d", p), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				src.Reset(stream.Bytes())
				if err := r.(flate.Resetter).Reset(&src, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(r, got); err != nil {
					b.Fatal(err)
				}
			}
			perSymbol(b, n)
		})
	}
}
