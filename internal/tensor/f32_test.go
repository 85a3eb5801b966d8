package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randn32 draws a float32 slice whose values are exactly representable in
// both lanes, so lane comparisons see only accumulation-order error.
func randn32(rng *rand.Rand, n int) ([]float32, []float64) {
	f32 := make([]float32, n)
	f64 := make([]float64, n)
	for i := range f32 {
		v := float32(rng.NormFloat64())
		f32[i] = v
		f64[i] = float64(v)
	}
	return f32, f64
}

// close32 compares a lane-32 result against the f64 reference with a
// relative tolerance scaled to float32 precision and the reduction length.
func close32(t *testing.T, name string, got []float32, want []float64, k int) {
	t.Helper()
	tol := 1e-6 * math.Sqrt(float64(k)+1)
	for i := range got {
		g, w := float64(got[i]), want[i]
		scale := math.Max(1, math.Abs(w))
		if math.Abs(g-w)/scale > tol {
			t.Fatalf("%s[%d] = %v, want %v (tol %v)", name, i, g, w, tol)
		}
	}
}

func TestMatMul32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 4}, {8, 64, 32}, {70, 300, 17}} {
		m, k, n := dims[0], dims[1], dims[2]
		a32, a64 := randn32(rng, m*k)
		b32, b64 := randn32(rng, k*n)
		// A few exact zeros: ordinary terms, folded like any other.
		for p := 0; p < k; p += 7 {
			a32[p] = 0
			a64[p] = 0
		}
		dst32 := make([]float32, m*n)
		MatMul32Into(dst32, a32, b32, m, k, n)
		ref := New(m, n)
		MatMulInto(ref, FromSlice(a64, m, k), FromSlice(b64, k, n))
		close32(t, "MatMul32Into", dst32, ref.Data(), k)
	}
}

func TestMatMulTransA32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{1, 2, 3}, {8, 32, 10}, {40, 33, 9}} {
		k, m, n := dims[0], dims[1], dims[2]
		a32, a64 := randn32(rng, k*m)
		b32, b64 := randn32(rng, k*n)
		dst32 := make([]float32, m*n)
		MatMulTransA32Acc(dst32, a32, b32, k, m, n)
		ref := New(m, n)
		MatMulTransAInto(ref, FromSlice(a64, k, m), FromSlice(b64, k, n))
		close32(t, "MatMulTransA32Acc", dst32, ref.Data(), k)
	}
}

// TestMatMulTransA32Accumulates pins the += contract: the kernel adds onto
// whatever the destination already holds (the lane's flat gradient buffer).
func TestMatMulTransA32Accumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k, m, n := 4, 3, 2
	a32, _ := randn32(rng, k*m)
	b32, _ := randn32(rng, k*n)
	once := make([]float32, m*n)
	MatMulTransA32Acc(once, a32, b32, k, m, n)
	twice := make([]float32, m*n)
	MatMulTransA32Acc(twice, a32, b32, k, m, n)
	MatMulTransA32Acc(twice, a32, b32, k, m, n)
	for i := range twice {
		// Term-by-term rounding makes the second pass inexact; tolerance only.
		want := 2 * float64(once[i])
		if math.Abs(float64(twice[i])-want) > 1e-5*math.Max(1, math.Abs(want)) {
			t.Fatalf("accumulation broken at %d: %v vs 2×%v", i, twice[i], once[i])
		}
	}
}

func TestMatMulTransB32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Inner dims straddle the 4-lane unroll boundary (k = 1..5 covers every
	// tail length) plus training-shaped products.
	for _, dims := range [][3]int{{2, 1, 3}, {2, 2, 3}, {2, 3, 3}, {2, 4, 3}, {2, 5, 3}, {8, 64, 32}, {8, 32, 10}} {
		m, k, n := dims[0], dims[1], dims[2]
		a32, a64 := randn32(rng, m*k)
		b32, b64 := randn32(rng, n*k)
		dst32 := make([]float32, m*n)
		MatMulTransB32Into(dst32, a32, b32, m, k, n)
		ref := New(m, n)
		MatMulTransBInto(ref, FromSlice(a64, m, k), FromSlice(b64, n, k))
		close32(t, "MatMulTransB32Into", dst32, ref.Data(), k)
	}
}

// TestMatMul32Deterministic pins that repeated lane-32 products are
// bit-identical: the fixed accumulator split must not hide any
// run-to-run variance.
func TestMatMul32Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, k, n := 8, 67, 13
	a32, _ := randn32(rng, m*k)
	b32, _ := randn32(rng, n*k)
	first := make([]float32, m*n)
	MatMulTransB32Into(first, a32, b32, m, k, n)
	again := make([]float32, m*n)
	for rep := 0; rep < 3; rep++ {
		MatMulTransB32Into(again, a32, b32, m, k, n)
		for i := range again {
			if math.Float32bits(again[i]) != math.Float32bits(first[i]) {
				t.Fatalf("rep %d: element %d differs: %v vs %v", rep, i, again[i], first[i])
			}
		}
	}
}

// TestIm2Col32MatchesF64Exactly — im2col/col2im only move and add values;
// on float32-representable inputs the lanes agree except where col2im
// accumulates overlapping patches, which stays within lane tolerance.
func TestIm2Col32MatchesF64Exactly(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := ConvGeom{InC: 2, InH: 6, InW: 5, K: 3, Stride: 1, Pad: 1}
	x32, x64 := randn32(rng, g.InC*g.InH*g.InW)
	rows, n := g.InC*g.K*g.K, g.OutH()*g.OutW()
	cols32 := make([]float32, rows*n)
	Im2Col32Into(cols32, x32, g)
	ref := im2Col(FromSlice(x64, g.InC, g.InH, g.InW), g)
	for i, v := range cols32 {
		if float64(v) != ref.Data()[i] {
			t.Fatalf("Im2Col32[%d] = %v, want %v", i, v, ref.Data()[i])
		}
	}

	c32, c64 := randn32(rng, rows*n)
	img32 := make([]float32, g.InC*g.InH*g.InW)
	Col2Im32Into(img32, c32, g)
	refImg := col2Im(FromSlice(c64, rows, n), g)
	close32(t, "Col2Im32Into", img32, refImg.Data(), g.K*g.K)
}

// x86NaN32 is the quiet NaN the SSE/AVX units generate (0·Inf, Inf−Inf).
// Planting this one pattern keeps every NaN in flight identical, so which
// operand of an add the compiler put first — the one x86 propagates — cannot
// show up as a payload difference between two correct kernels.
var x86NaN32 = math.Float32frombits(0xFFC00000)

// specials32 draws n values, about a quarter of them ±0, ±Inf or NaN.
func specials32(rng *rand.Rand, n int) []float32 {
	inf := float32(math.Inf(1))
	special := []float32{0, float32(math.Copysign(0, -1)), inf, -inf, x86NaN32}
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
		if rng.Intn(4) == 0 {
			v[i] = special[rng.Intn(len(special))]
		}
	}
	return v
}

// offset32 returns a copy of v that starts one element into a larger buffer,
// so its rows sit at addresses no vector load is aligned to.
func offset32(v []float32) []float32 {
	return append(make([]float32, 1, len(v)+1), v...)[1:]
}

func requireSameBits32(t *testing.T, name string, m, k, n int, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s %dx%dx%d: element [%d,%d] = %v (%#x), the Go loop gives %v (%#x)", name, m, k, n,
				i/n, i%n, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestF32KernelsBitIdenticalToGoLoops sweeps the three f32 products, vector
// path against the Go loops of the same binary, over every combination of
// full tile, row tail, column tail and reduction tail of both kernels plus
// the training shapes — once on finite operands and once with ±0, ±Inf and
// NaN planted in both, which pins that no form skips or reorders a term
// (0·Inf is NaN in the quad body and in the k%4 tail alike; −0 + +0 keeps its
// sign rule). Operands and destinations are unaligned, Into destinations
// start dirty and the Acc destination preloaded.
func TestF32KernelsBitIdenticalToGoLoops(t *testing.T) {
	if !useAVX2 {
		t.Skip("no vector kernels in this build: the Go loops are the only path")
	}
	rng := rand.New(rand.NewSource(32))
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 64, 72, 256}
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64, 72, 256}
	for _, m := range []int{1, 7, 8, 9, 16, 17} {
		for _, k := range ks {
			for _, n := range ns {
				for _, draw := range []func(*rand.Rand, int) []float32{
					func(rng *rand.Rand, n int) []float32 { v, _ := randn32(rng, n); return v },
					specials32,
				} {
					a, b := offset32(draw(rng, m*k)), offset32(draw(rng, k*n))
					pre := draw(rng, m*n)
					want, got := offset32(pre), offset32(pre)

					fold32(want, a, b, m, k, n, k, 1, false)
					fold32(got, a, b, m, k, n, k, 1, true)
					requireSameBits32(t, "a·b fold", m, k, n, got, want)
					MatMul32Into(got, a, b, m, k, n) // dirty destination
					clear(want)
					fold32(want, a, b, m, k, n, k, 1, false)
					requireSameBits32(t, "MatMul32Into", m, k, n, got, want)

					// aᵀ·b reads the same buffer as a k×m matrix.
					copy(want, pre)
					copy(got, pre)
					fold32(want, a, b, m, k, n, 1, m, false)
					MatMulTransA32Acc(got, a, b, k, m, n)
					requireSameBits32(t, "MatMulTransA32Acc", m, k, n, got, want)

					// a·bᵀ reads b's buffer as an n×k matrix.
					matMulTransB32(want, a, b, m, k, n, false)
					MatMulTransB32Into(got, a, b, m, k, n)
					requireSameBits32(t, "MatMulTransB32Into", m, k, n, got, want)
				}
			}
		}
	}
}

// TestFold32TailsNeverSkipATerm pins the tree the sweep above compares: an
// exact zero in a meets an Inf in b as NaN whether the term sits in a quad or
// in the k%4 tail, and a −0 product keeps a −0 sum (the parent's tails skipped
// av == 0, so both depended on k%4).
func TestFold32TailsNeverSkipATerm(t *testing.T) {
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	for k := 1; k <= 9; k++ {
		for p := 0; p < k; p++ {
			a, b := make([]float32, k), make([]float32, k)
			for i := range a {
				a[i], b[i] = 1, 1
			}
			a[p], b[p] = 0, inf
			dst := []float32{0}
			MatMul32Into(dst, a, b, 1, k, 1)
			if !math.IsNaN(float64(dst[0])) {
				t.Fatalf("MatMul32Into k=%d: 0·Inf at p=%d gave %v, want NaN", k, p, dst[0])
			}
			dst[0] = 0
			MatMulTransA32Acc(dst, a, b, k, 1, 1)
			if !math.IsNaN(float64(dst[0])) {
				t.Fatalf("MatMulTransA32Acc k=%d: 0·Inf at p=%d gave %v, want NaN", k, p, dst[0])
			}
		}
		// −0 + Σ(−0·1): every partial sum is −0, so the result is too.
		a, b := make([]float32, k), make([]float32, k)
		for i := range a {
			a[i], b[i] = negZero, 1
		}
		dst := []float32{negZero}
		MatMulTransA32Acc(dst, a, b, k, 1, 1)
		if math.Float32bits(dst[0]) != math.Float32bits(negZero) {
			t.Fatalf("MatMulTransA32Acc k=%d: −0 + Σ −0 = %v (%#x), want −0", k, dst[0], math.Float32bits(dst[0]))
		}
	}
}
