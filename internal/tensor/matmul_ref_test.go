package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The reference-order oracles: the loops the tiled kernels in matmul.go
// replaced, kept verbatim in their original loop order. refMatMulIKJ (in
// matmul_bench_test.go) is the a·b form; these are the other two. The tiled
// kernels must reproduce all three bit for bit — they tile outputs, never
// the reduction.

// refMatMulTransAPIJ is aᵀ·b in p-i-j order with the exact-zero skip.
func refMatMulTransAPIJ(a, b *Tensor) *Tensor {
	k, m := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a.data[p*m+i]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.data[i*n+j] += av * b.data[p*n+j]
			}
		}
	}
	return out
}

// refMatMulTransBDot is a·bᵀ as one plain ascending-p dot per element.
func refMatMulTransBDot(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(0)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.data[i*k+p] * b.data[j*k+p]
			}
			out.data[i*n+j] = s
		}
	}
	return out
}

// requireSameBits fails unless got and want agree in every bit of every
// element (so −0 ≠ +0 and a NaN is a mismatch against any finite value).
func requireSameBits(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", name, got.shape, want.shape)
	}
	for i := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference order gives %v (%#x)", name, i,
				got.data[i], math.Float64bits(got.data[i]), want.data[i], math.Float64bits(want.data[i]))
		}
	}
}

// plantZeros overwrites about a third of t with exact zeros of either sign,
// leaving runs of every length so quads with 0–4 live terms all occur.
func plantZeros(rng *rand.Rand, t *Tensor) {
	for i := range t.data {
		switch rng.Intn(6) {
		case 0:
			t.data[i] = 0
		case 1:
			t.data[i] = math.Copysign(0, -1)
		}
	}
}

// kernelSweepShapes are (m, k, n) triples covering the scalar tile tails (odd
// m, n%3≠0, k%4≠0, k<4, 1×1×1), the training shapes, every block boundary, a
// product above mmParallelFlops that takes the row-parallel path, and — in
// vectorTailShapes — every tail of the vector kernels.
var kernelSweepShapes = append([][3]int{
	{1, 1, 1}, {1, 3, 1}, {2, 2, 3}, {2, 4, 4}, {3, 5, 7}, {5, 2, 9}, {7, 13, 10}, {4, 8, 8},
	{8, 3, 5}, {9, 1, 4}, // k < 4 under a full vector tile: its sums are the k tail alone
	{8, 9, 256}, {16, 72, 64}, {8, 256, 64}, {9, 8, 256}, {64, 8, 256},
	{mmBlockI - 1, mmBlockK - 1, 17},
	{mmBlockI, mmBlockK, 16},
	{mmBlockI + 1, mmBlockK + 1, 9},
	{2*mmBlockI + 3, 2*mmBlockK + 5, 6},
	{160, 160, 160},
}, vectorTailShapes()...)

// vectorTailShapes crosses m around the 8-row tile (row tail, one and two
// tiles), k around the 4-term quad (k tail of a·bᵀ, single-term tail of the
// fold) and n around the 4- and 8-column lane groups, so every combination of
// full tile, row tail, column tail and k tail of both vector kernels occurs.
func vectorTailShapes() [][3]int {
	var shapes [][3]int
	for _, m := range []int{7, 8, 9, 15, 16, 17} {
		for _, k := range []int{4, 5, 7, 8} {
			for _, n := range []int{4, 5, 6, 7, 8, 9, 10} {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	return shapes
}

// offsetBy1 returns a tensor equal to t whose storage starts one element into
// a larger buffer, so its rows sit at addresses no vector load is aligned to.
func offsetBy1(t *Tensor) *Tensor {
	buf := make([]float64, len(t.data)+1)
	copy(buf[1:], t.data)
	return FromSlice(buf[1:], t.shape...)
}

// TestTiledKernelsBitIdenticalToReferenceOrder sweeps all three f64 kernels
// against their reference-order oracles. For the two skipping forms, whole
// reduction slices of a are zeroed and the b rows opposite them filled with
// ±Inf and NaN: the reference never multiplies those, so any tiling that
// folds a zero term in (0·Inf) turns a finite element into NaN and fails.
func TestTiledKernelsBitIdenticalToReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN()}
	for _, s := range kernelSweepShapes {
		m, k, n := s[0], s[1], s[2]
		dead := make([]bool, k) // reduction indices p whose a slice is all zero
		for p := range dead {
			dead[p] = rng.Intn(4) == 0
		}
		b := Randn(rng, 1, k, n)
		for p := 0; p < k; p++ {
			if dead[p] {
				for j := 0; j < n; j++ {
					b.data[p*n+j] = nonFinite[rng.Intn(len(nonFinite))]
				}
			}
		}

		a := Randn(rng, 1, m, k)
		plantZeros(rng, a)
		at := Randn(rng, 1, k, m)
		plantZeros(rng, at)
		for p := 0; p < k; p++ {
			if dead[p] {
				for i := 0; i < m; i++ {
					a.data[i*k+p] = 0
					at.data[p*m+i] = 0
				}
			}
		}

		want := refMatMulIKJ(a, b)
		for _, v := range want.data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v: oracle produced %v; the planted non-finite rows must stay unread", s, v)
			}
		}
		requireSameBits(t, "MatMul", matMul(a, b), want)
		// The Into forms run on operands one element off any alignment the
		// allocator gives (the vector kernels use unaligned loads and stores)
		// and on a dirty destination.
		dirty := offsetBy1(full(math.NaN(), m, n))
		MatMulInto(dirty, offsetBy1(a), offsetBy1(b))
		requireSameBits(t, "MatMulInto", dirty, want)

		wantA := refMatMulTransAPIJ(at, b)
		requireSameBits(t, "MatMulTransA", matMulTransA(at, b), wantA)
		dirty = offsetBy1(full(math.NaN(), m, n))
		MatMulTransAInto(dirty, offsetBy1(at), offsetBy1(b))
		requireSameBits(t, "MatMulTransAInto", dirty, wantA)

		// a·bᵀ has no skip in the reference, so only finite operands (with
		// zeros of both signs) are compared.
		bt := Randn(rng, 1, n, k)
		plantZeros(rng, bt)
		wantB := refMatMulTransBDot(a, bt)
		requireSameBits(t, "MatMulTransB", matMulTransB(a, bt), wantB)
		dirty = offsetBy1(full(math.NaN(), m, n))
		MatMulTransBInto(dirty, offsetBy1(a), offsetBy1(bt))
		requireSameBits(t, "MatMulTransBInto", dirty, wantB)
	}
}

// TestKernelPathReported logs which kernels this test binary selected (one
// gate, useAVX2, picks both lanes' products and the elementwise family), so a
// CI log shows whether the sweeps exercised the assembly or the Go loops.
func TestKernelPathReported(t *testing.T) {
	path := "go"
	if useAVX2 {
		path = "avx2"
	}
	t.Logf("tensor kernel path: f64 %s, f32 %s, elementwise %s (from %d elements)", path, path, path, vecMin)
}
