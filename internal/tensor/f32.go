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
//   - They may tile the reduction. Both kernel sets are register-tiled and
//     run at the same scalar multiply-add rate, but the f64 kernels tile
//     outputs only ("tile outputs, never the reduction"): every element
//     still sums its terms one by one in ascending p. The lane-32 kernels
//     reassociate instead: four terms are paired before they meet the
//     running sum, and MatMulTransB32Into splits each dot product into
//     partial sums. Every split has a fixed shape and combination order, so
//     the f32 lane is deterministic — just not term-for-term identical to
//     the f64 reduction order, which is fine because the lanes never mix
//     inside a forward/backward pass.
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
// overwriting dst (m×n). The reduction dimension is unrolled four ways:
// each pass over a dst row folds in four b rows, quartering the dst
// load/store traffic of the per-p reference form. Lane-32 products are
// per-device-layer sized (they fit in L1), so no cache blocking is needed.
//
//machlint:noalias dst,a dst,b
func MatMul32Into(dst, a, b []float32, m, k, n int) {
	check32("MatMul32Into dst", dst, m*n)
	check32("MatMul32Into a", a, m*k)
	check32("MatMul32Into b", b, k*n)
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for j := range drow[:n] {
			drow[j] = 0
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			v0, v1, v2, v3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			b0 := b[p*n : (p+1)*n]
			b1 := b[(p+1)*n : (p+2)*n]
			b2 := b[(p+2)*n : (p+3)*n]
			b3 := b[(p+3)*n : (p+4)*n]
			for j := range drow[:n] {
				drow[j] += (v0*b0[j] + v1*b1[j]) + (v2*b2[j] + v3*b3[j])
			}
		}
		for ; p < k; p++ {
			av := arow[p]
			//machlint:allow floateq sparsity fast path: exact zero rows multiply to exactly zero, skipping them is bit-identical
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulTransA32Acc accumulates dst += aᵀ·b for a (k×m) and b (k×n) into dst
// (m×n) without zeroing it first. The backward pass writes weight gradients
// straight into the lane's flat (pre-zeroed) gradient buffer, so the
// separate scratch-then-add of the f64 layers disappears. The reduction
// dimension is unrolled four ways so each pass over a dst row folds in four
// a/b rows at once instead of reloading the row per p.
//
//machlint:noalias dst,a dst,b
func MatMulTransA32Acc(dst, a, b []float32, k, m, n int) {
	check32("MatMulTransA32Acc dst", dst, m*n)
	check32("MatMulTransA32Acc a", a, k*m)
	check32("MatMulTransA32Acc b", b, k*n)
	p := 0
	for ; p+4 <= k; p += 4 {
		a0 := a[p*m : (p+1)*m]
		a1 := a[(p+1)*m : (p+2)*m]
		a2 := a[(p+2)*m : (p+3)*m]
		a3 := a[(p+3)*m : (p+4)*m]
		b0 := b[p*n : (p+1)*n]
		b1 := b[(p+1)*n : (p+2)*n]
		b2 := b[(p+2)*n : (p+3)*n]
		b3 := b[(p+3)*n : (p+4)*n]
		for i := 0; i < m; i++ {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			drow := dst[i*n : (i+1)*n]
			for j := range drow[:n] {
				drow[j] += (v0*b0[j] + v1*b1[j]) + (v2*b2[j] + v3*b3[j])
			}
		}
	}
	for ; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i, av := range arow {
			//machlint:allow floateq sparsity fast path: exact zero rows multiply to exactly zero, skipping them is bit-identical
			if av == 0 {
				continue
			}
			drow := dst[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulTransB32Into computes dst = a·bᵀ for a (m×k) and b (n×k), writing
// each element of dst (m×n) exactly once. Every element is an independent
// dot product. The kernel tiles four output columns per pass — each a load
// feeds four dots — and splits every dot into two partial sums, giving
// eight independent chains in the 4×2 body; leftover columns fall back to a
// four-way single-dot split. Both splits have fixed shapes, so results are
// deterministic (independent of anything but the operands).
//
//machlint:noalias dst,a dst,b
func MatMulTransB32Into(dst, a, b []float32, m, k, n int) {
	check32("MatMulTransB32Into dst", dst, m*n)
	check32("MatMulTransB32Into a", a, m*k)
	check32("MatMulTransB32Into b", b, n*k)
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		j := 0
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
	outH, outW := g.OutH(), g.OutW()
	rows := g.InC * g.K * g.K
	cols := outH * outW
	check32("Im2Col32Into dst", dst, rows*cols)
	check32("Im2Col32Into x", x, g.InC*g.InH*g.InW)
	for i := range dst[:rows*cols] {
		dst[i] = 0
	}
	for c := 0; c < g.InC; c++ {
		chOff := c * g.InH * g.InW
		for ky := 0; ky < g.K; ky++ {
			for kx := 0; kx < g.K; kx++ {
				row := (c*g.K+ky)*g.K + kx
				drow := dst[row*cols : (row+1)*cols]
				for oy := 0; oy < outH; oy++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					srcRow := chOff + iy*g.InW
					for ox := 0; ox < outW; ox++ {
						ix := ox*g.Stride + kx - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						drow[oy*outW+ox] = x[srcRow+ix]
					}
				}
			}
		}
	}
}

// Col2Im32Into scatters a [InC·K·K, OutH·OutW] column-gradient matrix back
// into an image gradient ([InC, InH, InW], flat), accumulating overlapping
// patches — the float32 twin of Col2ImInto. img is zeroed first.
//
//machlint:noalias img,cols
func Col2Im32Into(img, cols []float32, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	rows := g.InC * g.K * g.K
	n := outH * outW
	check32("Col2Im32Into img", img, g.InC*g.InH*g.InW)
	check32("Col2Im32Into cols", cols, rows*n)
	for i := range img[:g.InC*g.InH*g.InW] {
		img[i] = 0
	}
	for c := 0; c < g.InC; c++ {
		chOff := c * g.InH * g.InW
		for ky := 0; ky < g.K; ky++ {
			for kx := 0; kx < g.K; kx++ {
				row := (c*g.K+ky)*g.K + kx
				src := cols[row*n : (row+1)*n]
				for oy := 0; oy < outH; oy++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					dstRow := chOff + iy*g.InW
					for ox := 0; ox < outW; ox++ {
						ix := ox*g.Stride + kx - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						img[dstRow+ix] += src[oy*outW+ox]
					}
				}
			}
		}
	}
}
