package tensor

import "fmt"

// This file is the float32 compute lane's kernel set (DESIGN.md §10). The
// f64 kernels in matmul.go/im2col.go are the reference arithmetic of the
// simulator's default lane: the bit-identity golden tests freeze every
// output element's accumulation chain, not the loops around it. The lane-32
// kernels below mirror them over raw []float32 storage for the opt-in lane.
// Two deliberate differences:
//
//   - They take flat slices plus explicit dimensions instead of *Tensor.
//     The lane-32 executor in internal/nn owns large pooled buffers and
//     carves per-device views out of them; a shape-carrying wrapper per view
//     would put allocation back on the hot path.
//
//   - They may tile the reduction. The f64 kernels tile outputs only ("tile
//     outputs, never the reduction"): every element still sums its terms one
//     by one in ascending p. The lane-32 kernels reassociate instead: four
//     terms are paired before they meet the running sum, and
//     MatMulTransB32Into splits each dot product into partial sums. Every
//     split has a fixed shape and combination order that depends on the
//     dimensions alone, so the f32 lane is deterministic — just not
//     term-for-term identical to the f64 reduction order, which is fine
//     because the lanes never mix inside a forward/backward pass.
//
// Like the f64 set, the three products run on AVX2 micro-kernels
// (kernels_amd64.s, eight output columns per register) where useAVX2 says so
// and on the Go loops below everywhere else; the loops are also the vector
// kernels' column and row tails and their test oracle, and the two agree in
// every bit of every element.
//
// All lane-32 kernels are serial: per-device products are far below the
// row-parallel threshold, and the worker pool above already provides the
// coarse parallelism, so nesting goroutines here would only hurt.

// check32 panics when a kernel operand's length disagrees with its declared
// dimensions. Slices may be larger (views into pooled buffers pass their
// exact window, but a tail-capacity slice is harmless).
func check32(name string, a []float32, n int) {
	if len(a) < n {
		panic(fmt.Sprintf("tensor: %s operand holds %d float32s, need %d", name, len(a), n))
	}
}

// MatMul32Into computes dst = a·b for row-major a (m×k) and b (k×n),
// overwriting dst (m×n). Lane-32 products are per-device-layer sized (they
// fit in L1), so no cache blocking is needed.
//
//machlint:noalias dst,a dst,b
func MatMul32Into(dst, a, b []float32, m, k, n int) {
	check32("MatMul32Into dst", dst, m*n)
	check32("MatMul32Into a", a, m*k)
	check32("MatMul32Into b", b, k*n)
	clear(dst[:m*n])
	fold32(dst, a, b, m, k, n, k, 1, useAVX2)
}

// MatMulTransA32Acc accumulates dst += aᵀ·b for a (k×m) and b (k×n) into dst
// (m×n) without zeroing it first. The backward pass writes weight gradients
// straight into the lane's flat (pre-zeroed) gradient buffer, so the
// separate scratch-then-add of the f64 layers disappears.
//
//machlint:noalias dst,a dst,b
func MatMulTransA32Acc(dst, a, b []float32, k, m, n int) {
	check32("MatMulTransA32Acc dst", dst, m*n)
	check32("MatMulTransA32Acc a", a, k*m)
	check32("MatMulTransA32Acc b", b, k*n)
	fold32(dst, a, b, m, k, n, 1, m, useAVX2)
}

// fold32 adds Σ_p a[i·arow+p·aterm]·b[p,:] onto every row i of dst (m×n): the
// one reduction behind a·b (arow = k, aterm = 1) and aᵀ·b (arow = 1,
// aterm = m). The reduction dimension is unrolled four ways — each pass over
// a dst row folds in four b rows as d + ((v0·b0 + v1·b1) + (v2·b2 + v3·b3)),
// quartering the dst traffic of the per-p form — and the k%4 last terms are
// added singly. No term is ever skipped, so an element's expression tree
// depends on k alone, never on the data. Columns are independent: with vec
// the vector kernel takes every whole group of eight and the loops below fold
// the n%8 that remain.
//
//machlint:noalias dst,a dst,b
//machlint:allocfree
func fold32(dst, a, b []float32, m, k, n, arow, aterm int, vec bool) {
	jv := 0 // columns [0, jv) are folded by the vector kernel
	if vec && n >= 8 && m > 0 && k > 0 {
		jv = n &^ 7
		fold32AVX2(&dst[0], &b[0], &a[0], m, arow, aterm, k, jv, n)
	}
	if jv == n {
		return
	}
	for i := 0; i < m; i++ {
		d := dst[i*n+jv : (i+1)*n]
		av := a[i*arow:]
		p := 0
		for ; p+4 <= k; p += 4 {
			v0, v1, v2, v3 := av[p*aterm], av[(p+1)*aterm], av[(p+2)*aterm], av[(p+3)*aterm]
			b0 := b[p*n+jv:][:len(d)]
			b1 := b[(p+1)*n+jv:][:len(d)]
			b2 := b[(p+2)*n+jv:][:len(d)]
			b3 := b[(p+3)*n+jv:][:len(d)]
			for j := range d {
				d[j] += (v0*b0[j] + v1*b1[j]) + (v2*b2[j] + v3*b3[j])
			}
		}
		for ; p < k; p++ {
			v := av[p*aterm]
			for j, bv := range b[p*n+jv:][:len(d)] {
				d[j] += v * bv
			}
		}
	}
}

// MatMulTransB32Into computes dst = a·bᵀ for a (m×k) and b (n×k), writing
// each element of dst (m×n) exactly once. Every element is an independent
// dot product whose split into partial sums has a fixed shape (transB32Dots),
// so results are deterministic (independent of anything but the operands).
// Where the vector kernel exists it takes every whole 4-row × 8-column tile;
// the columns right of the tiles and the rows below them are transB32Dots'.
//
//machlint:noalias dst,a dst,b
func MatMulTransB32Into(dst, a, b []float32, m, k, n int) {
	check32("MatMulTransB32Into dst", dst, m*n)
	check32("MatMulTransB32Into a", a, m*k)
	check32("MatMulTransB32Into b", b, n*k)
	matMulTransB32(dst, a, b, m, k, n, useAVX2)
}

// matMulTransB32 is MatMulTransB32Into past its operand checks; vec false
// computes every element in transB32Dots.
//
//machlint:allocfree
func matMulTransB32(dst, a, b []float32, m, k, n int, vec bool) {
	iv, jv := 0, 0 // rows [0, iv) × columns [0, jv) are done by the vector kernel
	if vec && m >= 4 && n >= 8 && k > 0 {
		iv, jv = m&^3, n&^7
		transB32TilesAVX2(&dst[0], &a[0], &b[0], iv/4, jv/8, k, n)
	}
	transB32Dots(dst, a, b, 0, iv, jv, k, n)
	transB32Dots(dst, a, b, iv, m, 0, k, n)
}

// transB32Dots writes rows [i0, i1) × columns [j0, n) of a·bᵀ; j0 must be a
// multiple of 4. Columns below n&^3 go four per pass — each a load feeds four
// dots — with every dot split into an even-p and an odd-p partial sum, eight
// independent chains in the 4×2 body; the n%4 last columns fall back to a
// four-way single-dot split. Which split a column gets depends on n alone.
//
//machlint:allocfree
func transB32Dots(dst, a, b []float32, i0, i1, j0, k, n int) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		j := j0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s00, s01, s10, s11, s20, s21, s30, s31 float32
			p := 0
			for ; p+2 <= k; p += 2 {
				a0, a1 := arow[p], arow[p+1]
				s00 += a0 * b0[p]
				s01 += a1 * b0[p+1]
				s10 += a0 * b1[p]
				s11 += a1 * b1[p+1]
				s20 += a0 * b2[p]
				s21 += a1 * b2[p+1]
				s30 += a0 * b3[p]
				s31 += a1 * b3[p+1]
			}
			if p < k {
				av := arow[p]
				s00 += av * b0[p]
				s10 += av * b1[p]
				s20 += av * b2[p]
				s30 += av * b3[p]
			}
			drow[j] = s00 + s01
			drow[j+1] = s10 + s11
			drow[j+2] = s20 + s21
			drow[j+3] = s30 + s31
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s0, s1, s2, s3, tail float32
			p := 0
			for ; p+4 <= k; p += 4 {
				s0 += arow[p] * brow[p]
				s1 += arow[p+1] * brow[p+1]
				s2 += arow[p+2] * brow[p+2]
				s3 += arow[p+3] * brow[p+3]
			}
			for ; p < k; p++ {
				tail += arow[p] * brow[p]
			}
			drow[j] = ((s0 + s1) + (s2 + s3)) + tail
		}
	}
}

// Im2Col32Into lowers one image x ([InC, InH, InW], flat) into dst
// ([InC·K·K, OutH·OutW], flat), zeroing padding positions — the float32 twin
// of Im2ColInto.
//
//machlint:noalias dst,x
func Im2Col32Into(dst, x []float32, g ConvGeom) {
	rows, cols := g.InC*g.K*g.K, g.OutH()*g.OutW()
	check32("Im2Col32Into dst", dst, rows*cols)
	check32("Im2Col32Into x", x, g.InC*g.InH*g.InW)
	im2ColInto(dst[:rows*cols], x, g)
}

// Col2Im32Into scatters a [InC·K·K, OutH·OutW] column-gradient matrix back
// into an image gradient ([InC, InH, InW], flat), accumulating overlapping
// patches — the float32 twin of Col2ImInto. img is zeroed first.
//
//machlint:noalias img,cols
func Col2Im32Into(img, cols []float32, g ConvGeom) {
	rows, n := g.InC*g.K*g.K, g.OutH()*g.OutW()
	check32("Col2Im32Into img", img, g.InC*g.InH*g.InW)
	check32("Col2Im32Into cols", cols, rows*n)
	col2ImInto(img[:g.InC*g.InH*g.InW], cols, g)
}
