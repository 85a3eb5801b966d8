//go:build amd64 && !purego

package tensor

// useAVX2 selects the vector micro-kernels of kernels_amd64.s. It is decided
// once, from the CPU and the OS alone, so a binary takes the same path on
// every call; the Go loops in matmul.go produce the same bits either way.
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
