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
// (kernels_amd64.s, eight output columns per register) where useAVX2 says so,
// on AVX-512 ones where useAVX512 adds the ZMM tier — fold32AVX512 folds four
// rows × 32 columns at a time with sixteen columns per register, and
// transB32TilesAVX512 runs 8×8 a·bᵀ tiles whose registers hold each column's
// even-p and odd-p sums side by side — and on the Go loops below everywhere
// else; the loops are also the vector kernels' column and row tails and their
// test oracle, and every tier agrees in every bit of every element.
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
// the AVX-512 tier folds every element in fold32AVX512, else the AVX2 kernel
// takes every whole group of eight columns and the loops below fold the n%8
// that remain.
//
//machlint:noalias dst,a dst,b
//machlint:allocfree
func fold32(dst, a, b []float32, m, k, n, arow, aterm int, vec bool) {
	if vec && useAVX512 && m > 0 && k > 0 && n > 0 {
		fold32AVX512(&dst[0], &b[0], &a[0], m, arow, aterm, k, n)
		return
	}
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
// Where the vector kernels exist they take the columns below n&^7 in tiles:
// with AVX-512 every whole block of eight rows in 8×8 tiles and a block of
// four rows left below them in a 4×8 AVX2 tile, with AVX2 alone every whole
// block of four rows in 4×8 tiles. The columns right of the tiles and the
// rows below them are transB32Dots'.
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
	iv, jv := 0, 0 // rows [0, iv) × columns [0, jv) are done by the vector kernels
	if vec && n >= 8 && k > 0 {
		jv = n &^ 7
		if useAVX512 && m >= 8 {
			iv = m &^ 7
			transB32TilesAVX512(&dst[0], &a[0], &b[0], iv/8, jv/8, k, n)
		}
		if m-iv >= 4 {
			transB32TilesAVX2(&dst[iv*n], &a[iv*k], &b[0], (m-iv)/4, jv/8, k, n)
			iv = m &^ 3
		}
	}
	transB32Dots(dst, a, b, 0, iv, jv, k, n)
	transB32Dots(dst, a, b, iv, m, 0, k, n)
}

// transB32Dots writes rows [i0, i1) × columns [j0, n) of a·bᵀ; j0 must be a
// multiple of 4. Columns below n&^3 split every dot into an even-p and an
// odd-p partial sum, e + o; the n%4 last columns into the four partial sums
// of the p < k&^3 with p%4 = q, joined by splitJoin32. Which split a column
// gets depends on n alone. Dots run four rows side by side, each b load
// feeding four of them (a last group of fewer rows repeats its last row,
// storing its sums twice), and each partial sum takes a pass of its own: so
// every a value feeds one product and the compiled loops multiply with a as
// the first operand and add onto the running sum first, as the vector
// kernels do, and NaN payloads agree with them.
//
//machlint:allocfree
func transB32Dots(dst, a, b []float32, i0, i1, j0, k, n int) {
	k4 := k &^ 3
	for i := i0; i < i1; i += 4 {
		r1, r2, r3 := min(i+1, i1-1), min(i+2, i1-1), min(i+3, i1-1)
		a0, a1, a2, a3 := a[i*k:(i+1)*k], a[r1*k:(r1+1)*k], a[r2*k:(r2+1)*k], a[r3*k:(r3+1)*k]
		d0, d1, d2, d3 := dst[i*n:(i+1)*n], dst[r1*n:(r1+1)*n], dst[r2*n:(r2+1)*n], dst[r3*n:(r3+1)*n]
		j := j0
		for ; j < n&^3; j++ {
			brow := b[j*k : (j+1)*k]
			var e0, e1, e2, e3, o0, o1, o2, o3 float32
			for p := 0; p < k; p += 2 {
				x := brow[p]
				e0 += a0[p] * x
				e1 += a1[p] * x
				e2 += a2[p] * x
				e3 += a3[p] * x
			}
			for p := 1; p < k; p += 2 {
				x := brow[p]
				o0 += a0[p] * x
				o1 += a1[p] * x
				o2 += a2[p] * x
				o3 += a3[p] * x
			}
			d0[j], d1[j], d2[j], d3[j] = e0+o0, e1+o1, e2+o2, e3+o3
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s [16]float32 // s[4r+q]: row r's partial sum over the p < k4 with p%4 = q
			for q := range 4 {
				var s0, s1, s2, s3 float32
				for p := q; p < k4; p += 4 {
					x := brow[p]
					s0 += a0[p] * x
					s1 += a1[p] * x
					s2 += a2[p] * x
					s3 += a3[p] * x
				}
				s[q], s[4+q], s[8+q], s[12+q] = s0, s1, s2, s3
			}
			d0[j] = splitJoin32(s[0:4], a0[k4:], brow[k4:])
			d1[j] = splitJoin32(s[4:8], a1[k4:], brow[k4:])
			d2[j] = splitJoin32(s[8:12], a2[k4:], brow[k4:])
			d3[j] = splitJoin32(s[12:16], a3[k4:], brow[k4:])
		}
	}
}

// splitJoin32 ends a split dot: it sums the len(a) < 4 last terms a[p]·b[p]
// from +0 and returns ((s0 + s1) + (s2 + s3)) + tail for the partial sums s.
//
//machlint:allocfree
func splitJoin32(s, a, b []float32) float32 {
	b = b[:len(a)]
	var tail float32
	for p := range a {
		tail += a[p] * b[p]
	}
	return ((s[0] + s[1]) + (s[2] + s[3])) + tail
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
