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
