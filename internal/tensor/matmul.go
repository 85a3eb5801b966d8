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
	matMulDispatch(dst.data, a.data, b.data, m, k, n)
}

// matMulDispatch routes to the serial or row-parallel blocked kernel, which
// overwrites dst. The serial path is taken without materializing a
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

// matMulBlocked writes dst rows [i0, i1) of a·b with i/k blocking. Per
// k-block, four rows at a time go through foldQuad, which folds only the
// non-zero a[i,p] in ascending p, so the exact-zero skip of the reference loop
// holds for every input (a skipped term never meets a non-finite b). The rows'
// a values are one contiguous run, checked for a zero once for all quads.
//
//machlint:allocfree
func matMulBlocked(dst, a, b []float64, i0, i1, k, n int) {
	var s rowTerms
	dense := !hasZero(a[i0*k : i1*k])
	for ib := i0; ib < i1; ib += mmBlockI {
		ie := min(ib+mmBlockI, i1)
		for pb := 0; pb < k; pb += mmBlockK {
			pe := min(pb+mmBlockK, k)
			for i := ib; i < ie; i += 4 {
				s.foldQuad(dst[i*n:], a[i*k+pb:], b, min(4, ie-i), k, 1, pb, pe-pb, n, dense)
			}
		}
	}
}

// hasZero reports whether any of a is an exact zero of either sign — the test
// compact makes of each term, so a NaN is not one. When it reports false, no
// row of a product over a has a term to skip and none needs compacting.
//
//machlint:allocfree
func hasZero(a []float64) bool {
	i := 0
	if useAVX2 && len(a) >= 4 {
		i = len(a) &^ 3
		if anyZeroAVX2(&a[0], i) {
			return true
		}
	}
	for _, v := range a[i:] {
		//machlint:allow floateq sparsity fast path: exact zero rows multiply to exactly zero, skipping them is bit-identical
		if v == 0 {
			return true
		}
	}
	return false
}

// rowTerms holds one dst row's non-zero a values in a k-block and their p.
type rowTerms struct {
	ps [mmBlockK]int
	vs [mmBlockK]float64
}

// foldQuad adds the k-block [pb, pb+terms) of up to four dst rows onto d, one
// every n elements, clearing them first when pb = 0 (while they are hot, not
// in a pass over dst before the fold); row r's a values are a[r·rs + t·ts].
// Unless the caller has proven every a of the product non-zero (dense), rows
// with a zero term are compacted and go through foldRows. Four rows with none
// — always so when a is a weight matrix — go through the AVX-512 tile, which
// reads them from a and loads each b row once for the four.
//
//machlint:noalias d,a d,b
//machlint:allocfree
func (s *rowTerms) foldQuad(d, a, b []float64, rows, rs, ts, pb, terms, n int, dense bool) {
	if pb == 0 {
		clear(d[:rows*n])
	}
	live := 1<<rows - 1 // bit r: row r has no zero term
	if !dense {
		live = 0
		for r := range rows {
			cnt := s.compact(a[r*rs:], ts, pb, terms)
			if cnt == terms {
				live |= 1 << r
				continue
			}
			foldRows(d[r*n:(r+1)*n], b, s.ps[:cnt], s.vs[:cnt])
		}
	}
	if live == 0b1111 && useAVX512 {
		foldTile4AVX512(&d[0], &b[pb*n], &a[0], rs, ts, terms, n)
		return
	}
	for r := range rows {
		if live&(1<<r) != 0 {
			s.fill(a[r*rs:], ts, pb, terms)
			foldRows(d[r*n:(r+1)*n], b, s.ps[:terms], s.vs[:terms])
		}
	}
}

// compact returns how many of a[0], a[ts], … (terms of them) are non-zero.
// It writes nothing up to the first zero; from there on s holds the non-zero
// values and their p, counted from pb.
//
//machlint:allocfree
func (s *rowTerms) compact(a []float64, ts, pb, terms int) int {
	t, j := 0, 0
	//machlint:allow floateq sparsity fast path: exact zero rows multiply to exactly zero, skipping them is bit-identical
	for t < terms && a[j] != 0 {
		t, j = t+1, j+ts
	}
	if t == terms {
		return terms
	}
	s.fill(a, ts, pb, t)
	cnt := t
	for ; t < terms; t, j = t+1, j+ts {
		//machlint:allow floateq sparsity fast path: exact zero rows multiply to exactly zero, skipping them is bit-identical
		if av := a[j]; av != 0 {
			s.ps[cnt], s.vs[cnt] = pb+t, av
			cnt++
		}
	}
	return cnt
}

// fill copies the first terms values a[0], a[ts], … and their p into s.
//
//machlint:allocfree
func (s *rowTerms) fill(a []float64, ts, pb, terms int) {
	for t := range terms {
		s.ps[t], s.vs[t] = pb+t, a[t*ts]
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

// matMulTransAInto writes dst = aᵀ·b. The reference order is p-i-j;
// interchanging to i-outer leaves every dst[i,j] summing its non-zero
// a[p,i]·b[p,j] in ascending p, and lets four dst rows at a time go through
// foldQuad exactly like matMulBlocked, with a's strides swapped; the zero
// check reads a in its own order, contiguously, once. It stays serial: only
// small backward-pass products use the transposed-A form.
//
//machlint:noalias dst,a dst,b
//machlint:allocfree
func matMulTransAInto(dst, a, b []float64, k, m, n int) {
	var s rowTerms
	dense := !hasZero(a[:k*m])
	for pb := 0; pb < k; pb += mmBlockK {
		pe := min(pb+mmBlockK, k)
		for i := 0; i < m; i += 4 {
			s.foldQuad(dst[i*n:], a[pb*m+i:], b, min(4, m-i), 1, m, pb, pe-pb, n, dense)
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
// partitioning and output tiling cannot change results. Where vector kernels
// exist they take every whole block of eight rows over the columns below jv
// and the first kv terms — with AVX-512 in 8×8 tiles over k&^7, else in
// 8-row × 4-column tiles over k&^3 — and transBDots adds the k-kv last terms
// onto their sums; the columns from jv on and the rows outside the blocks are
// whole dots in transBDots. Each element is written before it is read, so dst
// needs no zeroing.
//
//machlint:allocfree
func matMulTransBRows(dst, a, b []float64, i0, i1, k, n int) {
	iv, jv, kv := i0, 0, 0 // rows [i0, iv) × columns [0, jv) are done by the vector kernels over p < kv
	switch {
	case useAVX512:
		kv, jv = k&^7, n&^7
	case useAVX2:
		kv, jv = k&^3, n&^3
	}
	for ; jv > 0 && iv+8 <= i1; iv += 8 {
		d, ai := &dst[iv*n], &a[iv*k]
		if useAVX512 {
			transBTilesAVX512(d, ai, &b[0], kv, k, n, jv/8)
		} else {
			transBTilesAVX2(d, ai, &b[0], kv, k, n, jv/4)
		}
		if kv < k {
			transBDots(dst, a, b, iv, iv+8, 0, jv, kv, k, n)
		}
	}
	transBDots(dst, a, b, i0, iv, jv, n, 0, k, n)
	transBDots(dst, a, b, iv, i1, 0, n, 0, k, n)
}

// transBDots writes the block rows [i0, i1) × columns [j0, j1) of a·bᵀ, or
// with p0 > 0 adds the terms p ≥ p0 onto the sums dst holds. Dots run four
// rows side by side, each b load feeding four of them; a last group of fewer
// rows repeats its last row, which stores the same sum twice. The running sums
// start from dst (cleared first when p0 = 0) and every a value feeds one
// product, so the compiled loop multiplies a first and adds onto the sum
// first — the operand order of the vector tiles, which the payload of a NaN
// meeting a NaN shows.
//
//machlint:allocfree
func transBDots(dst, a, b []float64, i0, i1, j0, j1, p0, k, n int) {
	for i := i0; i < i1; i += 4 {
		r1, r2, r3 := min(i+1, i1-1), min(i+2, i1-1), min(i+3, i1-1)
		a0, a1, a2, a3 := a[i*k+p0:(i+1)*k], a[r1*k+p0:(r1+1)*k], a[r2*k+p0:(r2+1)*k], a[r3*k+p0:(r3+1)*k]
		d0, d1, d2, d3 := dst[i*n:][:n], dst[r1*n:][:n], dst[r2*n:][:n], dst[r3*n:][:n]
		if p0 == 0 {
			clear(d0[j0:j1])
			clear(d1[j0:j1])
			clear(d2[j0:j1])
			clear(d3[j0:j1])
		}
		a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)] // one length: the dot loop runs unchecked
		for j := j0; j < j1; j++ {
			s0, s1, s2, s3 := d0[j], d1[j], d2[j], d3[j]
			for p, bv := range b[j*k+p0:][:len(a0)] {
				s0 += a0[p] * bv
				s1 += a1[p] * bv
				s2 += a2[p] * bv
				s3 += a3[p] * bv
			}
			d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
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
