//go:build amd64 && !purego

package tensor

// useAVX2 selects the vector micro-kernels of kernels_amd64.s. It is decided
// once, from the CPU and the OS alone, so a binary takes the same path on
// every call; the Go loops in matmul.go and f32.go produce the same bits
// either way.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM state (CPUID leaves 1 and 7, XGETBV).
func cpuHasAVX2() bool

// foldTermsAVX2 adds Σ_t vs[t]·b[ps[t]·n : ps[t]·n+cols] onto d[0:cols] for
// t in [0, terms), term by term in ascending t with a multiply and then an
// add per term, four adjacent columns per YMM register. cols must be a
// positive multiple of 4.
//
//go:noescape
func foldTermsAVX2(d, b *float64, ps *int, vs *float64, terms, cols, n int)

// transBTilesAVX2 writes the 8-row × 4·tiles-column block
// dst[r·n+j] = Σ_{p<k4} a[r·k+p]·b[j·k+p], each sum accumulated from +0 in
// ascending p with a multiply and then an add per term. k4 must be a multiple
// of 4 (zero is allowed: the block is then all +0).
//
//go:noescape
func transBTilesAVX2(dst, a, b *float64, k4, k, n, tiles int)

// machinePeakAVX2 runs iters rounds of 16 independent register-only
// VMULPD/VADDPD pairs (128 flops per round): the arithmetic ceiling the
// kernels above are measured against.
func machinePeakAVX2(iters int)

// fold32AVX2 adds Σ_p v[r·vrow+p·vterm]·b[p·n : p·n+cols] onto
// d[r·n : r·n+cols] for r in [0, rows) and p in [0, terms), in the expression
// tree of fold32: four terms at a time as (v0·b0 + v1·b1) + (v2·b2 + v3·b3)
// added to the running sum, then the terms%4 last ones singly, eight adjacent
// columns per YMM register. cols must be a positive multiple of 8, rows and
// terms positive.
//
//go:noescape
func fold32AVX2(d, b, v *float32, rows, vrow, vterm, terms, cols, n int)

// transB32TilesAVX2 writes the 4·rowTiles-row × 8·colTiles-column block
// dst[r·n+j] = e + o, where e and o sum a[r·k+p]·b[j·k+p] over the even and
// the odd p in [0, k), each from +0 in ascending p with a multiply and then an
// add per term: the tree of transB32Dots' 4×2 body. rowTiles, colTiles and k
// must be positive.
//
//go:noescape
func transB32TilesAVX2(dst, a, b *float32, rowTiles, colTiles, k, n int)

// machinePeak32AVX2 is machinePeakAVX2 on eight f32 lanes: 256 flops a round.
func machinePeak32AVX2(iters int)

// The elementwise family (elementwise.go): n is a positive multiple of eight
// (f32) or four (f64) elements; each lane does what one iteration of the Go
// loop of the same name does.

// add32AVX2 and add64AVX2 compute dst[i] += src[i].
//
//go:noescape
func add32AVX2(dst, src *float32, n int)

//go:noescape
func add64AVX2(dst, src *float64, n int)

// addScalar32AVX2 and addScalar64AVX2 compute dst[i] += v.
//
//go:noescape
func addScalar32AVX2(dst *float32, v float32, n int)

//go:noescape
func addScalar64AVX2(dst *float64, v float64, n int)

// axpy32AVX2 and axpy64AVX2 compute dst[i] += a·src[i]: a multiply, then an
// add.
//
//go:noescape
func axpy32AVX2(dst, src *float32, a float32, n int)

//go:noescape
func axpy64AVX2(dst, src *float64, a float64, n int)

// axpyDiff64AVX2 computes dst[i] += a·(x[i] − y[i]): subtract, multiply, add.
//
//go:noescape
func axpyDiff64AVX2(dst, x, y *float64, a float64, n int)

// relu32AVX2 and relu64AVX2 compute dst[i] = src[i] > 0 ? src[i] : +0.
//
//go:noescape
func relu32AVX2(dst, src *float32, n int)

//go:noescape
func relu64AVX2(dst, src *float64, n int)

// reluGrad32AVX2 and reluGrad64AVX2 compute dst[i] = fwd[i] > 0 ? grad[i] : +0.
//
//go:noescape
func reluGrad32AVX2(dst, grad, fwd *float32, n int)

//go:noescape
func reluGrad64AVX2(dst, grad, fwd *float64, n int)

// maxPool32AVX2 and maxPool64AVX2 pool output columns [0, cols) of orows
// output rows, each from two input rows of width w, as maxPool2x2Go does;
// cols is a positive multiple of four (f32) or two (f64), and a nil arg
// records no indices.
//
//go:noescape
func maxPool32AVX2(out *float32, arg *int32, in *float32, orows, w, cols int)

//go:noescape
func maxPool64AVX2(out *float64, arg *int32, in *float64, orows, w, cols int)

// addRows32AVX2 and addRows64AVX2 compute dst[r·dstStride+i] +=
// src[r·srcStride+i] for r in [0, rows) and i in [0, n), any n ≥ 1; no other
// cell is loaded or stored.
//
//go:noescape
func addRows32AVX2(dst, src *float32, rows, n, dstStride, srcStride int)

//go:noescape
func addRows64AVX2(dst, src *float64, rows, n, dstStride, srcStride int)

// masterUpdateAVX2 runs masterUpdateGo from a sum of +0 over n elements, n a
// positive multiple of four, and returns the sum.
//
//go:noescape
func masterUpdateAVX2(m *float64, p, grad *float32, lr float64, n int) float64
