package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// width carries what a generic sweep needs to know about one element type.
type width[T float32 | float64] struct {
	name     string
	bits     func(T) uint64
	specials []T // ±0, ±Inf, quiet NaNs of both signs with payloads, denormals
}

var (
	width32 = width[float32]{"f32", func(v float32) uint64 { return uint64(math.Float32bits(v)) }, []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFC00000),
		math.Float32frombits(0x7FC12345), math.Float32frombits(0xFFE00001),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007FFFFF),
	}}
	width64 = width[float64]{"f64", math.Float64bits, []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7FF8000000000000), math.Float64frombits(0xFFF8000000000000),
		math.Float64frombits(0x7FF8000000012345), math.Float64frombits(0xFFFC000000000001),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000FFFFFFFFFFFFF),
	}}
)

// draw returns n values one element into a larger buffer, so no vector load is
// aligned: normals, small integers (ties) and, with special, the width's
// special values in about half the cells.
func (w width[T]) draw(rng *rand.Rand, n int, special bool) []T {
	v := make([]T, n+1)[1:]
	for i := range v {
		switch k := rng.Intn(4); {
		case special && k < 2:
			v[i] = w.specials[rng.Intn(len(w.specials))]
		case k == 2:
			v[i] = T(rng.Intn(5) - 2)
		default:
			v[i] = T(rng.NormFloat64())
		}
	}
	return v
}

// oneNaNPerIndex makes the NaNs that meet at one index of the operands the
// same NaN. x86 propagates the first source's payload when both are NaNs, and
// which source the compiler makes of `dst[i] + v` is its own business, so two
// different payloads at one index could tell two correct kernels apart.
func oneNaNPerIndex[T float32 | float64](vs ...[]T) {
	for i := range vs[0] {
		var nan *T
		for _, v := range vs {
			if v[i] != v[i] {
				if nan == nil {
					nan = &v[i]
				}
				v[i] = *nan
			}
		}
	}
}

func (w width[T]) requireSame(t *testing.T, op string, n int, got, want []T) {
	t.Helper()
	for i := range want {
		if w.bits(got[i]) != w.bits(want[i]) {
			t.Fatalf("%s %s n=%d: element %d = %v (%#x), the Go loop gives %v (%#x)",
				op, w.name, n, i, got[i], w.bits(got[i]), want[i], w.bits(want[i]))
		}
	}
}

// clone2 returns two copies of v, each unaligned like v.
func clone2[T float32 | float64](v []T) (a, b []T) {
	a = append(make([]T, 1, len(v)+1), v...)[1:]
	b = append(make([]T, 1, len(v)+1), v...)[1:]
	return a, b
}

// TestElementwiseKernelsBitIdenticalToGoLoops holds every kernel of the
// elementwise family, vector path against the Go loop of the same binary, to
// the same bits (and, for the pool, the same indices): both widths, every
// length from 0 to 67 — below vecMin, every tail, several whole registers —
// and the training shapes (the 8·256 and 16·64 activation planes, the paper
// CNN's 18,346-parameter vector), operands and destinations one element off
// alignment, destinations dirty, once on finite data dense in ±0, denormals
// and ties and once with ±Inf and quiet NaNs of both signs and several
// payloads in about half the cells of every operand.
//
// Mutations planted in kernels_amd64.s while this test was written, and where
// it caught each:
//   - relu32AVX2 with the VMAXPS sources swapped (zero first):
//     "Relu f32 n=2048: element 5 = NaN (0x7fc12345), the Go loop gives 0";
//   - POOLCAND with the VMAXP* sources swapped (best first):
//     "MaxPool2x2 f32 w=16 rows=512: output 0 = NaN (0x7fc12345), the Go loop
//     gives 0.8622181" — a NaN candidate replaced the maximum;
//   - maxPool32AVX2 offering bottom-left before top-right:
//     "MaxPool2x2 f32 w=16 rows=512: index 220 = 888, the Go loop gives 873" —
//     a tie went to the later cell;
//   - addRows32AVX2 loading its lane mask one lane late (36 for 32):
//     "addRows f32 rows=1 n=17 strides 17/17: element 16", the last cell of
//     the run not added.
func TestElementwiseKernelsBitIdenticalToGoLoops(t *testing.T) {
	if !useAVX2 {
		t.Skip("no vector kernels in this build: the Go loops are the only path")
	}
	t.Run("f32", func(t *testing.T) { elementwiseMatchesGo(t, width32) })
	t.Run("f64", func(t *testing.T) { elementwiseMatchesGo(t, width64) })
	t.Run("AxpyDiff", axpyDiffMatchesGo)
	t.Run("MasterUpdate32", masterUpdateMatchesGo)
}

// sweepLengths is 0…67 and the training shapes.
func sweepLengths() []int {
	ns := []int{8 * 256, 16 * 64, 18346}
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return ns
}

func elementwiseMatchesGo[T float32 | float64](t *testing.T, w width[T]) {
	rng := rand.New(rand.NewSource(23))
	for _, special := range []bool{false, true} {
		// A zero scalar only on finite data: 0·Inf is a fresh NaN that could
		// meet one already in dst (see oneNaNPerIndex).
		scalars := []T{1.5, -0.75, w.specials[8], 3e30}
		if !special {
			scalars = append(scalars, 0, w.specials[1])
		}
		for _, n := range sweepLengths() {
			src, src2, dirty := w.draw(rng, n, special), w.draw(rng, n, special), w.draw(rng, n, special)
			oneNaNPerIndex(dirty, src)

			want, got := clone2(dirty)
			addGo(want, src)
			Add(got, src)
			w.requireSame(t, "Add", n, got, want)

			for _, a := range scalars {
				want, got = clone2(dirty)
				addScalarGo(want, a)
				AddScalar(got, a)
				w.requireSame(t, "AddScalar", n, got, want)

				if d, ok := any(dirty).([]float64); ok {
					x := any(src).([]float64)
					want, got := clone2(d)
					axpyGo(want, float64(a), x)
					Axpy(got, float64(a), x)
					width64.requireSame(t, "Axpy", n, got, want)
				}
			}

			want, got = clone2(dirty)
			reluGo(want, src)
			Relu(got, src)
			w.requireSame(t, "Relu", n, got, want)

			// Any operand, not only a Relu output, as fwd: the kernel compares
			// like the loop does.
			want, got = clone2(dirty)
			reluGradGo(want, src, src2)
			ReluGrad(got, src, src2)
			w.requireSame(t, "ReluGrad", n, got, want)
		}

		// Pool: every width up to 68 (every column tail of both steps) on zero
		// to three row pairs, and the training planes.
		type plane struct{ w, rows int }
		planes := []plane{{16, 2 * 8 * 8 * 4}, {8, 2 * 4 * 16 * 4}}
		for pw := 2; pw <= 68; pw += 2 {
			for rows := 0; rows <= 6; rows += 2 {
				planes = append(planes, plane{pw, rows})
			}
		}
		for _, p := range planes {
			in := w.draw(rng, p.w*p.rows, special)
			on := len(in) / 4
			want, got := clone2(w.draw(rng, on, special))
			wantArg, gotArg := make([]int32, on), make([]int32, on)
			for i := range gotArg {
				wantArg[i], gotArg[i] = -1, -2
			}
			maxPool2x2Go(want, wantArg, in, p.w, 0)
			MaxPool2x2(got, gotArg, in, p.w)
			name := fmt.Sprintf("MaxPool2x2 %s w=%d rows=%d", w.name, p.w, p.rows)
			for i := range want {
				if w.bits(got[i]) != w.bits(want[i]) {
					t.Fatalf("%s: output %d = %v (%#x), the Go loop gives %v (%#x)", name, i, got[i], w.bits(got[i]), want[i], w.bits(want[i]))
				}
				if gotArg[i] != wantArg[i] {
					t.Fatalf("%s: index %d = %d, the Go loop gives %d", name, i, gotArg[i], wantArg[i])
				}
			}
			noArg := w.draw(rng, on, special)
			MaxPool2x2(noArg, nil, in, p.w)
			w.requireSame(t, name+" without indices", on, noArg, want)
		}

		// Run add: every row length up to 19 (whole registers, every masked
		// tail), rows further apart than they are long, the whole destination
		// compared so a store outside a run shows.
		for rows := 1; rows <= 9; rows++ {
			for n := 1; n <= 19; n++ {
				for _, gap := range [][2]int{{0, 0}, {1, 3}, {5, 0}} {
					ds, ss := n+gap[0], n+gap[1]
					src, dirty := w.draw(rng, rows*ss, special), w.draw(rng, rows*ds, special)
					if gap[0] == gap[1] {
						oneNaNPerIndex(dirty, src)
					} else {
						for r := 0; r < rows; r++ {
							oneNaNPerIndex(dirty[r*ds:][:n], src[r*ss:][:n])
						}
					}
					want, got := clone2(dirty)
					addRowsGo(want, src, rows, n, ds, ss)
					addRows(got, src, rows, n, ds, ss)
					for i := range want {
						if w.bits(got[i]) != w.bits(want[i]) {
							t.Fatalf("addRows %s rows=%d n=%d strides %d/%d: element %d = %v (%#x), the Go loop gives %v (%#x)",
								w.name, rows, n, ds, ss, i, got[i], w.bits(got[i]), want[i], w.bits(want[i]))
						}
					}
				}
			}
		}
	}
}

func axpyDiffMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	w := width64
	for _, special := range []bool{false, true} {
		for _, n := range sweepLengths() {
			x, y, dirty := w.draw(rng, n, special), w.draw(rng, n, special), w.draw(rng, n, special)
			oneNaNPerIndex(dirty, x, y)
			for _, a := range []float64{0.01, -2.5, 1e300} {
				want, got := clone2(dirty)
				axpyDiffGo(want, a, x, y)
				AxpyDiff(got, a, x, y)
				w.requireSame(t, "AxpyDiff", n, got, want)
			}
		}
	}
}

func masterUpdateMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	// One NaN pattern (the float64 of x86NaN32 is the f64 default NaN too): the
	// norm chain adds a NaN square onto a NaN sum as soon as two gradients are
	// NaNs, and the master meets lr·NaN — see oneNaNPerIndex.
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), x86NaN32,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32}
	for _, specials := range []bool{false, true} {
		for _, n := range sweepLengths() {
			g := width32.draw(rng, n, false)
			m := width64.draw(rng, n, false)
			if specials {
				for i := range g {
					if rng.Intn(3) == 0 {
						g[i] = special[rng.Intn(len(special))]
					}
					if rng.Intn(8) == 0 {
						m[i] = float64(special[rng.Intn(len(special))])
					}
				}
			}
			for _, lr := range []float64{0.05, 0, 1e-320, 1e300} {
				wantM, gotM := clone2(m)
				wantP, gotP := clone2(width32.draw(rng, n, true))
				want := masterUpdateGo(wantM, wantP, g, lr, 0)
				got := MasterUpdate32(gotM, gotP, g, lr)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("MasterUpdate32 n=%d lr=%v: squared norm %v (%#x), the Go loop gives %v (%#x)",
						n, lr, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				width64.requireSame(t, "MasterUpdate32 master", n, gotM, wantM)
				width32.requireSame(t, "MasterUpdate32 params", n, gotP, wantP)
			}
		}
	}
}

// TestAddRowSumsKeepsEachRowsChain pins the one reduction of the family: four
// rows side by side or one at a time, a row's sum is the ascending chain from
// +0 (a row of −0 sums to +0; a large term absorbs the small ones after it,
// not before).
func TestAddRowSumsKeepsEachRowsChain(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, rows := range []int{1, 3, 4, 5, 8, 16} {
		for _, n := range []int{1, 2, 7, 64, 256} {
			src := width32.draw(rng, rows*n, false)
			for i := range src {
				src[i] *= float32(math.Pow(10, float64(rng.Intn(12)-6)))
			}
			clear(src[:n])
			src[0] = float32(math.Copysign(0, -1))
			got := width32.draw(rng, rows, false)
			want := append([]float32(nil), got...)
			for r := range want {
				var s float32
				for _, v := range src[r*n:][:n] {
					s += v
				}
				want[r] += s
			}
			AddRowSums(got, src, n)
			width32.requireSame(t, fmt.Sprintf("AddRowSums rows=%d", rows), n, got, want)
		}
	}
}

// BenchmarkElementwise times every kernel of the family through its public
// entry point ("api": the Go loop below vecMin, the vector kernel from it on)
// and as the Go loop alone ("go"), per width, at a Dense bias row of the MLP
// (10), vecMin itself, a hidden row (64), an activation plane (2 048) and a
// parameter vector (16 384). MB/s counts every byte a call reads or writes;
// vecMin is read off the 10- and 16-element rows.
func BenchmarkElementwise(b *testing.B) {
	b.Run("f32", func(b *testing.B) { benchmarkElementwise(b, width32) })
	b.Run("f64", func(b *testing.B) { benchmarkElementwise(b, width64) })
}

func benchmarkElementwise[T float32 | float64](b *testing.B, w width[T]) {
	rng := rand.New(rand.NewSource(27))
	size := int64(4)
	if w.name == "f64" {
		size = 8
	}
	for _, n := range []int{10, vecMin, 64, 2048, 16384} {
		dst, src, fwd := w.draw(rng, n, false), w.draw(rng, n, false), w.draw(rng, n, false)
		clear(dst) // adds onto it stay finite over any b.N
		run := func(op string, bytes int64, api, loop func()) {
			for _, path := range []struct {
				name string
				fn   func()
			}{{"api", api}, {"go", loop}} {
				if path.fn == nil {
					continue
				}
				b.Run(fmt.Sprintf("%s/n=%d/%s", op, n, path.name), func(b *testing.B) {
					b.SetBytes(bytes * size)
					for i := 0; i < b.N; i++ {
						path.fn()
					}
				})
			}
		}
		n64 := int64(n)
		run("Add", 3*n64, func() { Add(dst, src) }, func() { addGo(dst, src) })
		run("AddScalar", 2*n64, func() { AddScalar(dst, 0.5) }, func() { addScalarGo(dst, 0.5) })
		run("Relu", 2*n64, func() { Relu(dst, src) }, func() { reluGo(dst, src) })
		run("ReluGrad", 3*n64, func() { ReluGrad(dst, src, fwd) }, func() { reluGradGo(dst, src, fwd) })
		// Seven-cell runs eight apart on both sides: conv2's col2im planes.
		if rows := n / 8; rows > 0 {
			run("addRows", 3*7*int64(rows), func() { addRows(dst, src, rows, 7, 8, 8) }, func() { addRowsGo(dst, src, rows, 7, 8, 8) })
		}
		if n%32 == 0 { // row pairs of width 16, conv1's plane
			out, arg := w.draw(rng, n/4, false), make([]int32, n/4)
			// n inputs, n/4 outputs and n/4 four-byte indices, in elements.
			run("MaxPool2x2", n64+n64/4+n64/size, func() { MaxPool2x2(out, arg, src, 16) }, func() { maxPool2x2Go(out, arg, src, 16, 0) })
		}
		switch d := any(dst).(type) {
		case []float64:
			x, y := any(src).([]float64), any(fwd).([]float64)
			run("Axpy", 3*n64, func() { Axpy(d, 1e-3, x) }, func() { axpyGo(d, 1e-3, x) })
			run("AxpyDiff", 4*n64, func() { AxpyDiff(d, 1e-3, x, y) }, func() { axpyDiffGo(d, 1e-3, x, y) })
		case []float32:
			m, g := make([]float64, n), any(src).([]float32)
			// Bytes: g read, p written, m read and written (two words each).
			run("MasterUpdate32", 6*n64, func() { MasterUpdate32(m, d, g, 1e-3) }, func() { masterUpdateGo(m, d, g, 1e-3, 0) })
		}
	}
}
