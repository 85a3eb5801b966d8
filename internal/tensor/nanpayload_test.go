package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
)

// NaNs with distinct payloads, one per operand role. Where two meet, x86 keeps
// the first source's payload, so the bits of a result show which operand each
// multiply and add took first: a kernel agrees with its Go loop only if it
// uses the loop's operand order wherever the order is the compiler's choice.
var (
	nanPayloads64 = [3]float64{
		math.Float64frombits(0x7ff800000000a0a0),
		math.Float64frombits(0xfff800000000b0b0),
		math.Float64frombits(0x7ff800000000c0c0),
	}
	nanPayloads32 = [3]float32{
		math.Float32frombits(0x7fc0a0a0),
		math.Float32frombits(0xffc0b0b0),
		math.Float32frombits(0x7fc0c0c0),
	}
)

// nanShapes are (m, k, n) products with full tiles of every vector kernel,
// the a·bᵀ columns right of the tiles (n%8 ≠ 0), the k tails and the row
// tails. The last three put a full 8×8 f32 a·bᵀ tile on a k%16 tail: an odd
// last term after two 16-term blocks and after none, and an even tail over a
// 4-row AVX2 tile.
var nanShapes = [][3]int{
	{3, 5, 7}, {8, 4, 4}, {8, 8, 8}, {8, 16, 9}, {9, 17, 20}, {16, 12, 12},
	{8, 256, 9}, {16, 64, 72}, {17, 15, 16},
	{8, 33, 16}, {16, 7, 9}, {12, 26, 24},
}

// plantRowNaNs gives each of the rows rows of v (row r at v[r·rs + p·ps], p < k)
// one NaN at a random p, its payload nans[r%2]; rows and k positive.
func plantRowNaNs[T float32 | float64](rng *rand.Rand, v []T, rows, k, rs, ps int, nans [2]T) {
	for r := range rows {
		v[r*rs+rng.Intn(k)*ps] = nans[r%2]
	}
}

// TestNaNPayloadsFollowGoOperandOrder puts NaNs with distinct payloads on both
// operands of every vector kernel whose operand order is free — the f64 a·bᵀ
// kernels (the AVX2 tile and the ZMM tile) and transBDots,
// fold32AVX2, transB32TilesAVX2 and
// the elementwise add, addScalar, axpy, axpyDiff, addRows and masterUpdate —
// and holds each to the Float64bits/Float32bits of its Go loop on every tier.
// In the products every a row and every b row carries one NaN at a random p:
// where the two meet at one p the multiply's order shows, and where one comes
// first the running sum is a NaN when the other arrives, so the add's order
// shows. The elementwise operands carry a NaN in about half their cells each.
// The orders are those of the Go loops as the compiler builds them for a
// normal binary; the race detector's instrumentation compiles the loops to
// other code, with other register choices, so a -race binary skips the test.
func TestNaNPayloadsFollowGoOperandOrder(t *testing.T) {
	if raceEnabled() {
		t.Skip("-race compiles the Go loops with other operand orders than the binary the kernels match")
	}
	t.Run("TransB64", func(t *testing.T) {
		forEachFoldTier(t, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			for _, s := range nanShapes {
				m, k, n := s[0], s[1], s[2]
				a, b := Randn(rng, 1, m, k), Randn(rng, 1, n, k)
				plantRowNaNs(rng, a.data, m, k, k, 1, [2]float64{nanPayloads64[0], nanPayloads64[2]})
				plantRowNaNs(rng, b.data, n, k, k, 1, [2]float64{nanPayloads64[1], nanPayloads64[1]})
				want := refMatMulTransBDot(a, b)
				dirty := offsetBy1(full(math.NaN(), m, n))
				MatMulTransBInto(dirty, offsetBy1(a), offsetBy1(b))
				requireSameBits(t, fmt.Sprint(s, " MatMulTransBInto"), dirty, want)
				dots := full(math.NaN(), m, n)
				transBDots(dots.data, a.data, b.data, 0, m, 0, n, 0, k, n)
				requireSameBits(t, fmt.Sprint(s, " transBDots"), dots, want)
			}
		})
	})
	if !useAVX2 {
		return // the rest compares vector kernels with their Go loops
	}
	t.Run("F32Products", func(t *testing.T) { forEachFoldTier(t, nanF32ProductsMatchGo) })
	t.Run("Elementwise", func(t *testing.T) {
		nanElementwiseMatchesGo(t, width32, nanPayloads32)
		nanElementwiseMatchesGo(t, width64, nanPayloads64)
		nanMasterUpdateMatchesGo(t)
	})
}

// nanF32ProductsMatchGo holds the three f32 products to their Go loops on the
// current tier.
func nanF32ProductsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range nanShapes {
		m, k, n := s[0], s[1], s[2]
		a, _ := randn32(rng, m*k)
		b, _ := randn32(rng, k*n)
		a, b = offset32(a), offset32(b)
		pre, _ := randn32(rng, m*n)
		nans := [2]float32{nanPayloads32[0], nanPayloads32[2]}

		// a·b: a's rows are m×k, b's columns run down k.
		plantRowNaNs(rng, a, m, k, k, 1, nans)
		plantRowNaNs(rng, b, n, k, 1, n, [2]float32{nanPayloads32[1], nanPayloads32[1]})
		want, got := offset32(pre), offset32(pre)
		fold32(want, a, b, m, k, n, k, 1, false)
		fold32(got, a, b, m, k, n, k, 1, true)
		requireSameBits32(t, "fold32 a·b", m, k, n, got, want)
		// aᵀ·b reads a's buffer as k×m, each dst row from one column.
		plantRowNaNs(rng, a, m, k, 1, m, nans)
		copy(want, pre)
		copy(got, pre)
		fold32(want, a, b, m, k, n, 1, m, false)
		fold32(got, a, b, m, k, n, 1, m, true)
		requireSameBits32(t, "fold32 aᵀ·b", m, k, n, got, want)
		// a·bᵀ reads b's buffer as n×k.
		plantRowNaNs(rng, a, m, k, k, 1, nans)
		plantRowNaNs(rng, b, n, k, k, 1, [2]float32{nanPayloads32[1], nanPayloads32[1]})
		matMulTransB32(want, a, b, m, k, n, false)
		matMulTransB32(got, a, b, m, k, n, true)
		requireSameBits32(t, "transB32", m, k, n, got, want)
	}
}

// nanDraw returns n unaligned normals with about half the cells the NaN nan.
func nanDraw[T float32 | float64](rng *rand.Rand, n int, nan T) []T {
	v := make([]T, n+1)[1:]
	for i := range v {
		v[i] = T(rng.NormFloat64())
		if rng.Intn(2) == 0 {
			v[i] = nan
		}
	}
	return v
}

func nanElementwiseMatchesGo[T float32 | float64](t *testing.T, w width[T], nans [3]T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{16, 19, 37, 64, 8 * 256} {
		dirty, src, y := nanDraw(rng, n, nans[0]), nanDraw(rng, n, nans[1]), nanDraw(rng, n, nans[2])

		want, got := clone2(dirty)
		addGo(want, src)
		Add(got, src)
		w.requireSame(t, "Add", n, got, want)

		for _, v := range []T{nans[1], 1.5} {
			want, got = clone2(dirty)
			addScalarGo(want, v)
			AddScalar(got, v)
			w.requireSame(t, "AddScalar", n, got, want)
		}
		if x, ok := any(src).([]float64); ok {
			for _, a := range []float64{float64(nans[2]), -0.75} {
				want, got := clone2(any(dirty).([]float64))
				axpyGo(want, a, x)
				Axpy(got, a, x)
				width64.requireSame(t, "Axpy", n, got, want)
			}
			for _, a := range []float64{float64(nans[2]), 0.01} {
				want, got := clone2(any(dirty).([]float64))
				axpyDiffGo(want, a, x, any(y).([]float64))
				AxpyDiff(got, a, x, any(y).([]float64))
				width64.requireSame(t, "AxpyDiff", n, got, want)
			}
		}

		rows, cols := 4, n/4
		want, got = clone2(dirty)
		addRowsGo(want, src, rows, cols-1, cols, cols)
		addRows(got, src, rows, cols-1, cols, cols)
		w.requireSame(t, "addRows", n, got, want)
	}
}

// nanMasterUpdateMatchesGo gives the master weights, the gradients and lr
// distinct NaNs: m − lr·f meets NaNs in both places, and the norm adds a NaN
// square onto a NaN sum.
func nanMasterUpdateMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{16, 19, 64, 18346} {
		g := nanDraw(rng, n, nanPayloads32[1])
		m := nanDraw(rng, n, nanPayloads64[0])
		for _, lr := range []float64{nanPayloads64[2], 0.05} {
			wantM, gotM := clone2(m)
			wantP, gotP := clone2(make([]float32, n))
			want := masterUpdateGo(wantM, wantP, g, lr, 0)
			got := MasterUpdate32(gotM, gotP, g, lr)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("MasterUpdate32 n=%d lr=%v: squared norm %#x, the Go loop gives %#x",
					n, lr, math.Float64bits(got), math.Float64bits(want))
			}
			width64.requireSame(t, "MasterUpdate32 master", n, gotM, wantM)
			width32.requireSame(t, "MasterUpdate32 params", n, gotP, wantP)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, kv := range info.Settings {
		if kv.Key == "-race" {
			return kv.Value == "true"
		}
	}
	return false
}
