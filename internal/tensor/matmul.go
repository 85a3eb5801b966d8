package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// Kernel blocking parameters. Blocks are chosen so one block of b
// (mmBlockK × n doubles for moderate n) and the active rows of dst stay
// resident in L1/L2 while the i loop sweeps over them. The invariant every
// kernel in this file keeps: tile outputs, never the reduction. Blocking,
// register tiling and row parallelism reorder only the *traversal* of (i, p)
// pairs; for every output element dst[i,j] the partial products are still
// added one at a time in ascending p, so results are bit-identical to the
// naive i-k-j kernel (the reference loops live on as oracles in the tests).
const (
	mmBlockI = 64  // rows of dst per block
	mmBlockK = 256 // inner-dimension slice per block

	// mmParallelFlops is the m·k·n threshold above which the row-parallel
	// path engages. Training-step matmuls in the simulator are far below
	// it, so worker-pool tasks never nest goroutines; only large
	// evaluation or standalone products fan out.
	mmParallelFlops = 1 << 21

	// mmMinRowsPerTask keeps per-goroutine work coarse enough to amortize
	// scheduling.
	mmMinRowsPerTask = 32
)

// MatMulInto computes the matrix product dst = a·b for 2-D tensors a (m×k)
// and b (k×n), reusing dst's storage; dst must be m×n. The kernel is
// cache-blocked over rows of dst and slices of the inner dimension, and
// partitions by output rows across goroutines for large products; both
// transformations preserve the per-element accumulation order, so the result
// is bit-identical for any block size or parallelism.
//
//machlint:noalias dst,a dst,b
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	dst.Zero()
	matMulDispatch(dst.data, a.data, b.data, m, k, n)
}

// matMulDispatch routes to the serial or row-parallel blocked kernel.
// dst must be zeroed. The serial path is taken without materializing a
// closure so the training hot path stays allocation-free.
func matMulDispatch(dst, a, b []float64, m, k, n int) {
	if !shouldRowParallel(m, m*k*n) {
		matMulBlocked(dst, a, b, 0, m, k, n)
		return
	}
	rowParallel(m, func(i0, i1 int) {
		matMulBlocked(dst, a, b, i0, i1, k, n)
	})
}

// matMulBlocked accumulates dst rows [i0, i1) of a·b with i/k blocking. Per
// row and k-block the non-zero a[i,p] are compacted in ascending p and folded
// four at a time by foldRows, so the exact-zero skip of the reference loop
// holds for every input (a skipped term never meets a non-finite b).
//
//machlint:allocfree
func matMulBlocked(dst, a, b []float64, i0, i1, k, n int) {
	var ps [mmBlockK]int
	var vs [mmBlockK]float64
	for ib := i0; ib < i1; ib += mmBlockI {
		ie := ib + mmBlockI
		if ie > i1 {
			ie = i1
		}
		for pb := 0; pb < k; pb += mmBlockK {
			pe := pb + mmBlockK
			if pe > k {
				pe = k
			}
			for i := ib; i < ie; i++ {
				cnt := 0
				for p, av := range a[i*k+pb : i*k+pe] {
					//machlint:allow floateq sparsity fast path: exact zero rows multiply to exactly zero, skipping them is bit-identical
					if av != 0 {
						ps[cnt], vs[cnt] = pb+p, av
						cnt++
					}
				}
				foldRows(dst[i*n:(i+1)*n], b, ps[:cnt], vs[:cnt])
			}
		}
	}
}

// foldRows adds Σ_t vs[t]·b[ps[t],:] onto drow, term by term in ascending t.
// Four b rows are folded per pass over drow as the left-associated chain
// (((d+v0·b0)+v1·b1)+v2·b2)+v3·b3 — the same additions in the same order as
// four single passes, with a quarter of the drow loads and stores. Columns are
// independent, so where the vector kernel exists it takes every whole group of
// four columns and the loops below fold only the n%4 that remain.
//
//machlint:noalias drow,b
//machlint:allocfree
func foldRows(drow, b []float64, ps []int, vs []float64) {
	n := len(drow)
	vs = vs[:len(ps)]
	jv := 0 // columns [0, jv) are folded by the vector kernel
	if useAVX2 && n >= 4 && len(ps) > 0 {
		jv = n &^ 3
		foldTermsAVX2(&drow[0], &b[0], &ps[0], &vs[0], len(ps), jv, n)
	}
	d := drow[jv:]
	if len(d) == 0 {
		return
	}
	t := 0
	for ; t+4 <= len(ps); t += 4 {
		v0, v1, v2, v3 := vs[t], vs[t+1], vs[t+2], vs[t+3]
		b0 := b[ps[t]*n+jv:][:len(d)]
		b1 := b[ps[t+1]*n+jv:][:len(d)]
		b2 := b[ps[t+2]*n+jv:][:len(d)]
		b3 := b[ps[t+3]*n+jv:][:len(d)]
		for j, dv := range d {
			d[j] = (((dv + v0*b0[j]) + v1*b1[j]) + v2*b2[j]) + v3*b3[j]
		}
	}
	for ; t < len(ps); t++ {
		v := vs[t]
		for j, bv := range b[ps[t]*n+jv:][:len(d)] {
			d[j] += v * bv
		}
	}
}

// MatMulTransAInto computes dst = aᵀ·b, reusing dst's storage. dst must be
// m×n for a (k×m) and b (k×n). This is the backward-pass form used when
// computing weight gradients.
//
//machlint:noalias dst,a dst,b
func MatMulTransAInto(dst, a, b *Tensor) {
	k, m, n := transAShape(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	dst.Zero()
	matMulTransAInto(dst.data, a.data, b.data, k, m, n)
}

func transAShape(a, b *Tensor) (k, m, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA requires 2-D operands, got %v and %v", a.shape, b.shape))
	}
	k, m = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimensions disagree: %vᵀ × %v", a.shape, b.shape))
	}
	return k, m, b.shape[1]
}

// matMulTransAInto accumulates dst += aᵀ·b. The reference order is p-i-j;
// interchanging to i-outer leaves every dst[i,j] summing its non-zero
// a[p,i]·b[p,j] in ascending p, and lets a dst row take four p terms per pass
// through foldRows exactly like matMulBlocked. It stays serial: only small
// backward-pass products use the transposed-A form.
//
//machlint:noalias dst,a dst,b
//machlint:allocfree
func matMulTransAInto(dst, a, b []float64, k, m, n int) {
	var ps [mmBlockK]int
	var vs [mmBlockK]float64
	for pb := 0; pb < k; pb += mmBlockK {
		pe := pb + mmBlockK
		if pe > k {
			pe = k
		}
		for i := 0; i < m; i++ {
			cnt := 0
			for p := pb; p < pe; p++ {
				av := a[p*m+i]
				//machlint:allow floateq sparsity fast path: exact zero rows multiply to exactly zero, skipping them is bit-identical
				if av != 0 {
					ps[cnt], vs[cnt] = p, av
					cnt++
				}
			}
			foldRows(dst[i*n:(i+1)*n], b, ps[:cnt], vs[:cnt])
		}
	}
}

// MatMulTransBInto computes dst = a·bᵀ, reusing dst's storage. dst must be
// m×n for a (m×k) and b (n×k). This is the backward-pass form used when
// propagating gradients through a dense layer.
//
//machlint:noalias dst,a dst,b
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k, n := transBShape(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	matMulTransBDispatch(dst.data, a.data, b.data, m, k, n)
}

func transBShape(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransB requires 2-D operands, got %v and %v", a.shape, b.shape))
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimensions disagree: %v × %vᵀ", a.shape, b.shape))
	}
	return m, k, b.shape[0]
}

func matMulTransBDispatch(dst, a, b []float64, m, k, n int) {
	if !shouldRowParallel(m, m*k*n) {
		matMulTransBRows(dst, a, b, 0, m, k, n)
		return
	}
	rowParallel(m, func(i0, i1 int) {
		matMulTransBRows(dst, a, b, i0, i1, k, n)
	})
}

// matMulTransBRows writes dst rows [i0, i1) of a·bᵀ. Every element is an
// independent dot product accumulated from +0 in ascending p, so row
// partitioning and output tiling cannot change results. Where the vector
// kernel exists it takes every whole 8-row × 4-column tile over the first
// k&^3 terms and the k%4 last terms are added onto its sums here; the rows
// and columns outside those tiles are whole dots in transBDots. Each element
// is written before it is read, so dst needs no zeroing.
//
//machlint:allocfree
func matMulTransBRows(dst, a, b []float64, i0, i1, k, n int) {
	iv, jv := i0, 0 // rows [i0, iv) × columns [0, jv) are done by the vector kernel
	if useAVX2 && n >= 4 {
		jv = n &^ 3
		k4 := k &^ 3
		for ; iv+8 <= i1; iv += 8 {
			transBTilesAVX2(&dst[iv*n], &a[iv*k], &b[0], k4, k, n, jv/4)
			if k4 == k {
				continue
			}
			for i := iv; i < iv+8; i++ {
				arow, drow := a[i*k+k4:(i+1)*k], dst[i*n:][:jv]
				for j := range drow {
					s := drow[j]
					for p, bv := range b[j*k+k4 : (j+1)*k] {
						s += arow[p] * bv
					}
					drow[j] = s
				}
			}
		}
	}
	transBDots(dst, a, b, i0, iv, jv, n, k, n)
	transBDots(dst, a, b, iv, i1, 0, n, k, n)
}

// transBDots writes the block rows [i0, i1) × columns [j0, j1) of a·bᵀ as a
// 2-row × 3-column tile of dots running side by side, each a/b load feeding
// several of them. Six is the most that stays in registers — the compiler
// holds a product per running sum, and a 2×4 tile's sixteen values spill a
// sum to the stack inside its own add chain. An odd last row pairs with
// itself (its values are stored twice).
func transBDots(dst, a, b []float64, i0, i1, j0, j1, k, n int) {
	for i := i0; i < i1; i += 2 {
		ii := i + 1
		if ii == i1 {
			ii = i
		}
		a0, a1 := a[i*k:][:k], a[ii*k:][:k]
		d0, d1 := dst[i*n:][:n], dst[ii*n:][:n]
		j := j0
		for ; j+3 <= j1; j += 3 {
			b0, b1, b2 := b[j*k:][:k], b[(j+1)*k:][:k], b[(j+2)*k:][:k]
			var s00, s01, s02, s10, s11, s12 float64
			for p, x0 := range a0 {
				x1 := a1[p]
				s00 += x0 * b0[p]
				s01 += x0 * b1[p]
				s02 += x0 * b2[p]
				s10 += x1 * b0[p]
				s11 += x1 * b1[p]
				s12 += x1 * b2[p]
			}
			d0[j], d0[j+1], d0[j+2] = s00, s01, s02
			d1[j], d1[j+1], d1[j+2] = s10, s11, s12
		}
		for ; j < j1; j++ {
			brow := b[j*k:][:k]
			var s0, s1 float64
			for p, x0 := range a0 {
				s0 += x0 * brow[p]
				s1 += a1[p] * brow[p]
			}
			d0[j], d1[j] = s0, s1
		}
	}
}

// shouldRowParallel reports whether a product of m output rows and the given
// flop count is worth fanning out across cores.
func shouldRowParallel(m, flops int) bool {
	return flops >= mmParallelFlops && runtime.GOMAXPROCS(0) > 1 && m >= 2*mmMinRowsPerTask
}

// rowParallel invokes fn over a partition of [0, m) into contiguous row
// ranges, one goroutine per range. Row ranges touch disjoint slices of dst,
// so the result is identical to the serial call fn(0, m) regardless of
// scheduling.
func rowParallel(m int, fn func(i0, i1 int)) {
	tasks := runtime.GOMAXPROCS(0)
	if max := m / mmMinRowsPerTask; tasks > max {
		tasks = max
	}
	chunk := (m + tasks - 1) / tasks
	var wg sync.WaitGroup
	for i0 := 0; i0 < m; i0 += chunk {
		i1 := i0 + chunk
		if i1 > m {
			i1 = m
		}
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			fn(i0, i1)
		}(i0, i1)
	}
	wg.Wait()
}
