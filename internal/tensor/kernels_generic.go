//go:build !amd64 || purego

package tensor

// Without the amd64 assembly the Go loops in matmul.go and f32.go do all the
// work; the vector entry points exist only so the guarded calls compile.
const useAVX2 = false

func foldTermsAVX2(d, b *float64, ps *int, vs *float64, terms, cols, n int) {
	panic("tensor: no vector kernels in this build")
}

func transBTilesAVX2(dst, a, b *float64, k4, k, n, tiles int) {
	panic("tensor: no vector kernels in this build")
}

func machinePeakAVX2(iters int) {
	panic("tensor: no vector kernels in this build")
}

func fold32AVX2(d, b, v *float32, rows, vrow, vterm, terms, cols, n int) {
	panic("tensor: no vector kernels in this build")
}

func transB32TilesAVX2(dst, a, b *float32, rowTiles, colTiles, k, n int) {
	panic("tensor: no vector kernels in this build")
}

func machinePeak32AVX2(iters int) {
	panic("tensor: no vector kernels in this build")
}

func add32AVX2(dst, src *float32, n int) { panic("tensor: no vector kernels in this build") }

func add64AVX2(dst, src *float64, n int) { panic("tensor: no vector kernels in this build") }

func addScalar32AVX2(dst *float32, v float32, n int) {
	panic("tensor: no vector kernels in this build")
}

func addScalar64AVX2(dst *float64, v float64, n int) {
	panic("tensor: no vector kernels in this build")
}

func axpy32AVX2(dst, src *float32, a float32, n int) {
	panic("tensor: no vector kernels in this build")
}

func axpy64AVX2(dst, src *float64, a float64, n int) {
	panic("tensor: no vector kernels in this build")
}

func axpyDiff64AVX2(dst, x, y *float64, a float64, n int) {
	panic("tensor: no vector kernels in this build")
}

func relu32AVX2(dst, src *float32, n int) { panic("tensor: no vector kernels in this build") }

func relu64AVX2(dst, src *float64, n int) { panic("tensor: no vector kernels in this build") }

func reluGrad32AVX2(dst, grad, fwd *float32, n int) {
	panic("tensor: no vector kernels in this build")
}

func reluGrad64AVX2(dst, grad, fwd *float64, n int) {
	panic("tensor: no vector kernels in this build")
}

func maxPool32AVX2(out *float32, arg *int32, in *float32, orows, w, cols int) {
	panic("tensor: no vector kernels in this build")
}

func maxPool64AVX2(out *float64, arg *int32, in *float64, orows, w, cols int) {
	panic("tensor: no vector kernels in this build")
}

func addRows32AVX2(dst, src *float32, rows, n, dstStride, srcStride int) {
	panic("tensor: no vector kernels in this build")
}

func addRows64AVX2(dst, src *float64, rows, n, dstStride, srcStride int) {
	panic("tensor: no vector kernels in this build")
}

func masterUpdateAVX2(m *float64, p, grad *float32, lr float64, n int) float64 {
	panic("tensor: no vector kernels in this build")
}
