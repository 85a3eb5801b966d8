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
		// Exercise the sparsity fast path on a few exact-zero rows.
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
