package codec

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkCodec times every scheme on the protocol's dominant blob shape —
// a model against a 1e-3-perturbed baseline — at the parameter counts of the
// repo's three architectures (fleet MLP, fed MLP, paper CNN). MB/s is over
// the raw float64 bytes; bytes/blob is the payload size.
func BenchmarkCodec(b *testing.B) {
	for _, n := range []int{2410, 8554, 18346} {
		rng := rand.New(rand.NewSource(int64(n)))
		baseline := make([]float64, n)
		params := make([]float64, n)
		for i := range params {
			baseline[i] = 0.1 * rng.NormFloat64()
			params[i] = baseline[i] * (1 + 1e-3*rng.NormFloat64())
		}
		for _, scheme := range Schemes() {
			var ef []float64
			if scheme == SchemeInt8 {
				ef = make([]float64, n)
			}
			blob, err := Encode(scheme, params, baseline, 1, ef)
			if err != nil {
				b.Fatal(err)
			}
			decBase := baseline
			if blob.Baseline == 0 { // SchemeRaw ignores the baseline
				decBase = nil
			}
			b.Run(fmt.Sprintf("encode/%v/n=%d", scheme, n), func(b *testing.B) {
				b.SetBytes(int64(8 * n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Encode(scheme, params, baseline, 1, ef); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(blob.Data)), "bytes/blob")
			})
			b.Run(fmt.Sprintf("decode/%v/n=%d", scheme, n), func(b *testing.B) {
				b.SetBytes(int64(8 * n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Decode(blob, decBase); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
