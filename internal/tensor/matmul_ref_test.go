package tensor

import (
	"fmt"
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
// tiles), k around the 4- and 8-term blocks (k tails of the a·bᵀ tiles,
// single-term tail of the fold) and n around the 4- and 8-column lane groups
// (n < 8 leaves no AVX-512 tile, n%8 ≥ 4 leaves at least four columns right
// of the tiles to transBDots), so every combination of full tile, row tail,
// column tail and k tail of the vector kernels occurs — among them a full 8×8
// tile with a k%8 tail and with every column tail width.
func vectorTailShapes() [][3]int {
	var shapes [][3]int
	for _, m := range []int{7, 8, 9, 15, 16, 17} {
		for _, k := range []int{4, 5, 7, 8, 15, 16, 17} {
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 16, 17, 20} {
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

// forEachFoldTier runs fn as one subtest per kernel tier this binary can
// take — the AVX-512 tiles of both lanes off, then on where the CPU has
// them — and restores the gate afterwards.
func forEachFoldTier(t *testing.T, fn func(t *testing.T)) {
	has := useAVX512
	defer func() { useAVX512 = has }()
	for _, on := range []bool{false, true} {
		if on && !has {
			continue
		}
		useAVX512 = on
		t.Run(foldTier(), fn)
	}
}

// foldTier names the kernel four rows with no zero term fold in.
func foldTier() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX2:
		return "avx2"
	}
	return "go"
}

// requireFoldForms checks a·b and aᵀ·b (at is k×m) of shape s against their
// reference orders, through the allocating forms and through the Into forms
// on operands one element off any alignment the allocator gives (the vector
// kernels use unaligned loads and stores) and on a dirty destination.
func requireFoldForms(t *testing.T, s [3]int, a, at, b *Tensor) {
	t.Helper()
	m, n := s[0], s[2]
	want := refMatMulIKJ(a, b)
	requireSameBits(t, fmt.Sprint(s, " MatMul"), matMul(a, b), want)
	dirty := offsetBy1(full(math.NaN(), m, n))
	MatMulInto(dirty, offsetBy1(a), offsetBy1(b))
	requireSameBits(t, fmt.Sprint(s, " MatMulInto"), dirty, want)

	wantA := refMatMulTransAPIJ(at, b)
	requireSameBits(t, fmt.Sprint(s, " MatMulTransA"), matMulTransA(at, b), wantA)
	dirty = offsetBy1(full(math.NaN(), m, n))
	MatMulTransAInto(dirty, offsetBy1(at), offsetBy1(b))
	requireSameBits(t, fmt.Sprint(s, " MatMulTransAInto"), dirty, wantA)
}

// TestTiledKernelsBitIdenticalToReferenceOrder sweeps all three f64 kernels
// against their reference-order oracles on every fold tier. For the two
// skipping forms, whole reduction slices of a are zeroed and the b rows
// opposite them filled with ±Inf and NaN: the reference never multiplies
// those, so any tiling that folds a zero term in (0·Inf) turns a finite
// element into NaN and fails.
//
// Mutations planted in the a·bᵀ ZMM tile (ROWS8, TRANSPOSE8) and where the
// avx512 tier caught each:
//   - an FMA for row 0's multiply and add: [8 9 256] MatMulTransB element 11,
//     one ulp off;
//   - VMULPD's operands swapped (b first): not here, whose a·bᵀ operands are
//     finite; TestNaNPayloadsFollowGoOperandOrder failed at [16 64 72]
//     MatMulTransBInto element 20, which kept b's NaN payload for a's;
//   - $0x22 for $0x88 in TRANSPOSE8's first last-stage VSHUFF64X2, which
//     swaps two 128-bit lanes of the first p's column: [16 72 64]
//     MatMulTransB element 0 ([8 9 256], the one shape before it that
//     multiplies in the tile, did not show it).
func TestTiledKernelsBitIdenticalToReferenceOrder(t *testing.T) {
	forEachFoldTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
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

			for _, v := range refMatMulIKJ(a, b).data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%v: oracle produced %v; the planted non-finite rows must stay unread", s, v)
				}
			}
			requireFoldForms(t, s, a, at, b)

			// a·bᵀ has no skip in the reference, so only finite operands (with
			// zeros of both signs) are compared.
			bt := Randn(rng, 1, n, k)
			plantZeros(rng, bt)
			wantB := refMatMulTransBDot(a, bt)
			requireSameBits(t, fmt.Sprint(s, " MatMulTransB"), matMulTransB(a, bt), wantB)
			dirty := offsetBy1(full(math.NaN(), m, n))
			MatMulTransBInto(dirty, offsetBy1(a), offsetBy1(bt))
			requireSameBits(t, fmt.Sprint(s, " MatMulTransBInto"), dirty, wantB)
		}
	})
}

var nonFinite = []float64{math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN()}

// TestDenseFoldBitIdenticalToReferenceOrder runs the two fold forms on an a
// with no zero, so every four consecutive rows take the AVX-512 tile where
// the CPU has one: m around the four-row quad, n around the 16- and 8-column
// blocks and the masked tail, and one k past a k-block, whose second block
// must start from the first one's sums. One b row holds ±Inf and NaN, and
// row 1 of a holds a NaN whose payload differs from the b NaNs it meets (the
// one in the last column always), so the bits show every operand order. Each
// of three mutations planted in the tile failed here first at:
//   - an FMA for the multiply and add: [4 9 7] MatMul element 1, the first
//     shape with a full quad, off by one ulp;
//   - VMULPD's operands swapped (v first): [4 1 7] MatMul element 7, row 1's
//     NaN times a −NaN of b, which kept a's payload;
//   - the running sums started at +0 rather than loaded from d: [8 265 17]
//     MatMul element 0, the shape past a k-block, which lost the first block.
func TestDenseFoldBitIdenticalToReferenceOrder(t *testing.T) {
	var shapes [][3]int
	for _, m := range []int{3, 4, 5, 8, 9} {
		for _, k := range []int{1, 9, 72} {
			for _, n := range []int{7, 8, 9, 15, 16, 17, 64} {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	shapes = append(shapes, [3]int{8, mmBlockK + 9, 17})
	nanA := math.Float64frombits(0x7ff800000000a0a0)
	nanB := math.Float64frombits(0xfff800000000b0b0)
	forEachFoldTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a, at, b := Randn(rng, 1, m, k), Randn(rng, 1, k, m), Randn(rng, 1, k, n)
			p := rng.Intn(k)
			for j := 0; j < n-1; j += 5 {
				b.data[p*n+j] = nonFinite[rng.Intn(len(nonFinite))]
			}
			b.data[p*n+n-1] = nanB
			a.data[k+p], at.data[p*m+1] = nanA, nanA
			requireFoldForms(t, s, a, at, b)
		}
	})
}

// TestKernelPathReported logs which kernels this test binary selected, so a
// CI log shows whether the sweeps exercised the assembly or the Go loops.
// useAVX2 picks both lanes' products and the elementwise family; useAVX512
// adds the four-row tile of the f64 fold and puts a·bᵀ on the 8×8 ZMM tile,
// and in the f32 lane puts a·b and aᵀ·b on the ZMM
// fold and a·bᵀ on the 8×8 tile whose lanes hold even and odd sums.
func TestKernelPathReported(t *testing.T) {
	path := "go"
	if useAVX2 {
		path = "avx2"
	}
	fold, transB, f32 := path, path, path
	if useAVX512 {
		fold, transB, f32 = "avx512 tile + avx2", "avx512 8×8 tile + go columns", "avx512 fold + 8×8 e/o tile"
	}
	t.Logf("tensor kernel path: f64 fold %s, f64 a·bᵀ %s, f32 %s, elementwise %s (from %d elements)", fold, transB, f32, path, vecMin)
}
