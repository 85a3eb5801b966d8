package tensor

import (
	"fmt"
	"math"
)

// This file is the elementwise kernel family: the loops of a training step
// that have no reduction order to protect — slice add, scalar add, axpy, the
// aggregation update, ReLU forward and backward, the 2×2 max-pool, the col2im
// run add and the f32 lane's master update — each written once, for the
// widths the lanes use, and called by every layer (DESIGN.md §10). An output
// element depends on the operand elements at its own index (or, for the pool,
// on a fixed 2×2 window), so eight f32 or four f64 outputs per YMM register
// are eight or four scalar computations side by side and the results carry
// the bits of the Go loops below. Those loops are the whole kernel without the
// amd64 assembly (-tags purego, arm64), the tail of every vector pass, the
// path of operands shorter than vecMin, and the oracle of
// TestElementwiseKernelsBitIdenticalToGoLoops. The loops whose operand order
// the compiler picks are kept out of line (go:noinline), so the tails, the
// pure-Go build and the tests run one compiled body, whose order on NaN
// payloads the kernels copy.

// vecMin is the operand length from which the vector kernels run. Below it a
// call costs more than it saves: BenchmarkElementwise has the Go loop ahead at
// 10 elements (a Dense bias row of the MLP) and the kernels ahead from 16 on,
// in every op and both widths.
const vecMin = 16

// Add adds src onto dst element by element: dst[i] += src[i].
//
//machlint:allocfree
func Add[T float32 | float64](dst, src []T) {
	src = src[:len(dst)]
	i := 0
	if useAVX2 && len(dst) >= vecMin {
		switch d := any(dst).(type) {
		case []float32:
			i = len(d) &^ 7
			add32AVX2(&d[0], &any(src).([]float32)[0], i)
		case []float64:
			i = len(d) &^ 3
			add64AVX2(&d[0], &any(src).([]float64)[0], i)
		}
	}
	addGo(dst[i:], src[i:])
}

//go:noinline
func addGo[T float32 | float64](dst, src []T) {
	for i, v := range src {
		dst[i] += v
	}
}

// AddScalar adds v onto every element of dst.
//
//machlint:allocfree
func AddScalar[T float32 | float64](dst []T, v T) {
	i := 0
	if useAVX2 && len(dst) >= vecMin {
		switch d := any(dst).(type) {
		case []float32:
			i = len(d) &^ 7
			addScalar32AVX2(&d[0], float32(v), i)
		case []float64:
			i = len(d) &^ 3
			addScalar64AVX2(&d[0], float64(v), i)
		}
	}
	addScalarGo(dst[i:], v)
}

//go:noinline
func addScalarGo[T float32 | float64](dst []T, v T) {
	for i := range dst {
		dst[i] += v
	}
}

// Axpy adds a·src onto dst: dst[i] += a·src[i], the product rounded before
// the add (the explicit conversion keeps a fusing compiler from contracting
// the two; the vector kernel multiplies, then adds). Like AxpyDiff it is
// float64 only: its callers are the aggregations and the f64 SGD step.
//
//machlint:allocfree
func Axpy(dst []float64, a float64, src []float64) {
	src = src[:len(dst)]
	i := 0
	if useAVX2 && len(dst) >= vecMin {
		i = len(dst) &^ 3
		axpy64AVX2(&dst[0], &src[0], a, i)
	}
	axpyGo(dst[i:], a, src[i:])
}

//go:noinline
func axpyGo(dst []float64, a float64, src []float64) {
	for i, v := range src {
		dst[i] += float64(a * v)
	}
}

// AxpyDiff adds a·(x − y) onto dst: dst[i] += a·(x[i] − y[i]), the update of
// inverse-probability aggregation (Eq. 5 on model differences), which only the
// float64 aggregation boundary runs.
//
//machlint:allocfree
func AxpyDiff(dst []float64, a float64, x, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	i := 0
	if useAVX2 && len(dst) >= vecMin {
		i = len(dst) &^ 3
		axpyDiff64AVX2(&dst[0], &x[0], &y[0], a, i)
	}
	axpyDiffGo(dst[i:], a, x[i:], y[i:])
}

//go:noinline
func axpyDiffGo(dst []float64, a float64, x, y []float64) {
	for i, v := range x {
		dst[i] += float64(a * (v - y[i]))
	}
}

// Relu writes max(0, x) for every x of src: −x, ±0 and NaNs of either sign
// become +0. dst may be src.
//
//machlint:allocfree
func Relu[T float32 | float64](dst, src []T) {
	dst = dst[:len(src)]
	i := 0
	if useAVX2 && len(src) >= vecMin {
		switch s := any(src).(type) {
		case []float32:
			i = len(s) &^ 7
			relu32AVX2(&any(dst).([]float32)[0], &s[0], i)
		case []float64:
			i = len(s) &^ 3
			relu64AVX2(&any(dst).([]float64)[0], &s[0], i)
		}
	}
	reluGo(dst[i:], src[i:])
}

func reluGo[T float32 | float64](dst, src []T) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReluGrad passes grad where fwd is positive and writes +0 elsewhere. fwd is
// the retained Relu output, positive exactly where the input was, so no
// separate mask is stored.
//
//machlint:allocfree
func ReluGrad[T float32 | float64](dst, grad, fwd []T) {
	dst, fwd = dst[:len(grad)], fwd[:len(grad)]
	i := 0
	if useAVX2 && len(grad) >= vecMin {
		switch g := any(grad).(type) {
		case []float32:
			i = len(g) &^ 7
			reluGrad32AVX2(&any(dst).([]float32)[0], &g[0], &any(fwd).([]float32)[0], i)
		case []float64:
			i = len(g) &^ 3
			reluGrad64AVX2(&any(dst).([]float64)[0], &g[0], &any(fwd).([]float64)[0], i)
		}
	}
	reluGradGo(dst[i:], grad[i:], fwd[i:])
}

func reluGradGo[T float32 | float64](dst, grad, fwd []T) {
	for i, g := range grad {
		if fwd[i] > 0 {
			dst[i] = g
		} else {
			dst[i] = 0
		}
	}
}

// MaxPool2x2 pools in, a stack of rows of width w (an even number of them),
// 2×2 at stride 2 into out: output row r takes input rows 2r and 2r+1. Unless
// arg is nil it also records in arg the flat index into in of each maximum —
// the first one under strict > in (top-left, top-right, bottom-left,
// bottom-right) order, so a NaN never wins a comparison and only a NaN in the
// top-left corner comes through.
//
//machlint:allocfree
func MaxPool2x2[T float32 | float64](out []T, arg []int32, in []T, w int) {
	checkPool(len(out), arg, len(in), w)
	ow := w / 2
	jv := 0 // output columns [0, jv) of every row are pooled by the vector kernel
	if useAVX2 && len(out) > 0 {
		var ap *int32
		if arg != nil {
			ap = &arg[0]
		}
		switch o := any(out).(type) {
		case []float32:
			if jv = ow &^ 3; jv > 0 {
				maxPool32AVX2(&o[0], ap, &any(in).([]float32)[0], len(o)/ow, w, jv)
			}
		case []float64:
			if jv = ow &^ 1; jv > 0 {
				maxPool64AVX2(&o[0], ap, &any(in).([]float64)[0], len(o)/ow, w, jv)
			}
		}
	}
	if jv < ow {
		maxPool2x2Go(out, arg, in, w, jv)
	}
}

// checkPool panics unless in inputs are an even number of rows of even width w
// that pool into out outputs, with one index each where arg is not nil.
func checkPool(out int, arg []int32, in, w int) {
	if w <= 0 || w%2 != 0 || in%(2*w) != 0 || out != in/4 || (arg != nil && len(arg) != out) || in > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: MaxPool2x2 of %d inputs in rows of %d into %d outputs, %d indices", in, w, out, len(arg)))
	}
}

// maxPool2x2Go pools output columns [from, w/2) of every output row.
func maxPool2x2Go[T float32 | float64](out []T, arg []int32, in []T, w, from int) {
	ow := w / 2
	for r := 0; r < len(out)/ow; r++ {
		top, bot := in[2*r*w:][:w], in[(2*r+1)*w:][:w]
		for ox := from; ox < ow; ox++ {
			j := 2 * ox
			best, at := top[j], 2*r*w+j
			if c := top[j+1]; c > best {
				best, at = c, 2*r*w+j+1
			}
			if c := bot[j]; c > best {
				best, at = c, (2*r+1)*w+j
			}
			if c := bot[j+1]; c > best {
				best, at = c, (2*r+1)*w+j+1
			}
			out[r*ow+ox] = best
			if arg != nil {
				arg[r*ow+ox] = int32(at)
			}
		}
	}
}

// addRows adds a rows×n block of src, its rows srcStride apart, onto the block
// of dst whose rows are dstStride apart: col2im's scatter of one (c, ky, kx)
// plane. The vector kernel masks the n%8 (n%4) last lanes of a row out of its
// loads and stores, so it touches exactly the cells the loop does.
//
//machlint:allocfree
func addRows[T float32 | float64](dst, src []T, rows, n, dstStride, srcStride int) {
	if useAVX2 && rows*n >= vecMin {
		_, _ = dst[(rows-1)*dstStride+n-1], src[(rows-1)*srcStride+n-1]
		switch d := any(dst).(type) {
		case []float32:
			addRows32AVX2(&d[0], &any(src).([]float32)[0], rows, n, dstStride, srcStride)
		case []float64:
			addRows64AVX2(&d[0], &any(src).([]float64)[0], rows, n, dstStride, srcStride)
		}
		return
	}
	addRowsGo(dst, src, rows, n, dstStride, srcStride)
}

func addRowsGo[T float32 | float64](dst, src []T, rows, n, dstStride, srcStride int) {
	for r := 0; r < rows; r++ {
		addGo(dst[r*dstStride:][:n], src[r*srcStride:][:n])
	}
}

// AddRowSums adds the sum of each length-n row of src onto dst: dst[r] +=
// ((src[r·n] + src[r·n+1]) + …), the conv bias gradient. This one is a
// reduction, so it is not vectorised across a row: every row keeps its one
// ascending chain from +0, and four rows' chains run side by side so that
// their add latencies overlap.
//
//machlint:allocfree
func AddRowSums[T float32 | float64](dst, src []T, n int) {
	r := 0
	for ; r+4 <= len(dst); r += 4 {
		r0, r1, r2, r3 := src[r*n:][:n], src[(r+1)*n:][:n], src[(r+2)*n:][:n], src[(r+3)*n:][:n]
		var s0, s1, s2, s3 T
		for j, v := range r0 {
			s0 += v
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		dst[r] += s0
		dst[r+1] += s1
		dst[r+2] += s2
		dst[r+3] += s3
	}
	for ; r < len(dst); r++ {
		var s T
		for _, v := range src[r*n:][:n] {
			s += v
		}
		dst[r] += s
	}
}

// MasterUpdate32 is the f32 lane's aggregation boundary for one slot: for
// every j, with f = float64(g[j]), it applies m[j] −= lr·f to the float64
// master weights, re-rounds the compute copy p[j] = float32(m[j]) and returns
// Σ f·f, the squared gradient norm. The conversions, the update and the
// squares are elementwise; the norm is a reduction, so the vector kernel adds
// its squares onto one running sum lane by lane in ascending j, exactly the
// chain of the loop.
//
//machlint:allocfree
func MasterUpdate32(m []float64, p, g []float32, lr float64) float64 {
	m, p = m[:len(g)], p[:len(g)]
	sum, i := 0.0, 0
	if useAVX2 && len(g) >= vecMin {
		i = len(g) &^ 3
		sum = masterUpdateAVX2(&m[0], &p[0], &g[0], lr, i)
	}
	return masterUpdateGo(m[i:], p[i:], g[i:], lr, sum)
}

// masterUpdateGo continues the norm chain from sum.
//
//go:noinline
func masterUpdateGo(m []float64, p, g []float32, lr, sum float64) float64 {
	for j, gv := range g {
		f := float64(gv)
		sum += float64(f * f)
		m[j] -= float64(lr * f)
		p[j] = float32(m[j])
	}
	return sum
}
