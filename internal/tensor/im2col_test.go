package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvGeomOutputDims(t *testing.T) {
	tests := []struct {
		name       string
		g          ConvGeom
		outH, outW int
	}{
		{"same padding 3x3", ConvGeom{InC: 1, InH: 8, InW: 8, K: 3, Stride: 1, Pad: 1}, 8, 8},
		{"valid 3x3", ConvGeom{InC: 2, InH: 8, InW: 8, K: 3, Stride: 1, Pad: 0}, 6, 6},
		{"stride 2", ConvGeom{InC: 1, InH: 8, InW: 8, K: 2, Stride: 2, Pad: 0}, 4, 4},
		{"rectangular input", ConvGeom{InC: 1, InH: 5, InW: 7, K: 3, Stride: 1, Pad: 1}, 5, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if got := tt.g.OutH(); got != tt.outH {
				t.Fatalf("OutH = %d, want %d", got, tt.outH)
			}
			if got := tt.g.OutW(); got != tt.outW {
				t.Fatalf("OutW = %d, want %d", got, tt.outW)
			}
		})
	}
}

func TestConvGeomValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		g    ConvGeom
	}{
		{"zero channels", ConvGeom{InC: 0, InH: 4, InW: 4, K: 3, Stride: 1}},
		{"zero stride", ConvGeom{InC: 1, InH: 4, InW: 4, K: 3, Stride: 0}},
		{"negative pad", ConvGeom{InC: 1, InH: 4, InW: 4, K: 3, Stride: 1, Pad: -1}},
		{"kernel too large", ConvGeom{InC: 1, InH: 2, InW: 2, K: 5, Stride: 1, Pad: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.g.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

// naiveConv computes a direct convolution of x with a single kernel w of
// shape [InC, K, K], used to cross-check the im2col path.
func naiveConv(x *Tensor, w *Tensor, g ConvGeom) *Tensor {
	outH, outW := g.OutH(), g.OutW()
	out := New(outH, outW)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			s := 0.0
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.K; ky++ {
					for kx := 0; kx < g.K; kx++ {
						iy, ix := oy*g.Stride+ky-g.Pad, ox*g.Stride+kx-g.Pad
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							continue
						}
						s += x.At(c, iy, ix) * w.At(c, ky, kx)
					}
				}
			}
			out.Set(s, oy, ox)
		}
	}
	return out
}

func TestIm2ColMatchesNaiveConv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	geoms := []ConvGeom{
		{InC: 1, InH: 6, InW: 6, K: 3, Stride: 1, Pad: 0},
		{InC: 2, InH: 6, InW: 6, K: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 8, InW: 8, K: 5, Stride: 2, Pad: 2},
		{InC: 1, InH: 5, InW: 7, K: 3, Stride: 2, Pad: 1},
	}
	for _, g := range geoms {
		x := Randn(rng, 1, g.InC, g.InH, g.InW)
		w := Randn(rng, 1, g.InC, g.K, g.K)
		cols := im2Col(x, g)
		wRow := w.Reshape(1, g.InC*g.K*g.K)
		got := matMul(wRow, cols).Reshape(g.OutH(), g.OutW())
		want := naiveConv(x, w, g)
		for i := range got.Data() {
			if !almostEqual(got.Data()[i], want.Data()[i], 1e-10) {
				t.Fatalf("geom %+v: im2col conv differs from naive at %d: %v vs %v",
					g, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e. for all x, y:
// <Im2Col(x), y> == <x, Col2Im(y)>. This is exactly the identity the
// convolution backward pass relies on.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ConvGeom{
			InC:    1 + rng.Intn(3),
			InH:    3 + rng.Intn(5),
			InW:    3 + rng.Intn(5),
			K:      1 + rng.Intn(3),
			Stride: 1 + rng.Intn(2),
			Pad:    rng.Intn(2),
		}
		if g.Validate() != nil {
			return true
		}
		x := Randn(rng, 1, g.InC, g.InH, g.InW)
		cx := im2Col(x, g)
		y := Randn(rng, 1, cx.Dim(0), cx.Dim(1))
		// <Im2Col(x), y>
		lhs := 0.0
		for i, v := range cx.Data() {
			lhs += v * y.Data()[i]
		}
		// <x, Col2Im(y)>
		cy := col2Im(y, g)
		rhs := 0.0
		for i, v := range x.Data() {
			rhs += v * cy.Data()[i]
		}
		return almostEqual(lhs, rhs, 1e-8*(1+lhs*lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := ConvGeom{InC: 2, InH: 4, InW: 4, K: 3, Stride: 1, Pad: 1}
	im2Col(New(1, 4, 4), g)
}

// TestStride1PathsMatchGeneralLoop compares the stride-1 im2col/col2im fast
// paths with the any-stride loops bit for bit, for both element types, over
// every padding-vs-kernel relation (no padding, padding narrower and wider
// than the input, a kernel wider than the image) on non-square images.
// Destinations start dirty where the callee owns the clearing; ±0, ±Inf and
// NaN cells must land unchanged.
func TestStride1PathsMatchGeneralLoop(t *testing.T) {
	t.Run("f64", func(t *testing.T) { stride1MatchesGeneral(t, math.Float64bits) })
	t.Run("f32", func(t *testing.T) {
		stride1MatchesGeneral(t, func(v float32) uint64 { return uint64(math.Float32bits(v)) })
	})
}

func stride1MatchesGeneral[T float32 | float64](t *testing.T, bits func(T) uint64) {
	rng := rand.New(rand.NewSource(21))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	draw := func(n int, specials bool) []T {
		v := make([]T, n)
		for i := range v {
			v[i] = T(rng.NormFloat64())
			if specials && rng.Intn(5) == 0 {
				v[i] = T(special[rng.Intn(len(special))])
			}
		}
		return v
	}
	requireSame := func(name string, g ConvGeom, got, want []T) {
		t.Helper()
		for i := range want {
			if bits(got[i]) != bits(want[i]) {
				t.Fatalf("%s %+v: element %d = %v (%#x), the general loop gives %v (%#x)",
					name, g, i, got[i], bits(got[i]), want[i], bits(want[i]))
			}
		}
	}
	for _, hw := range [][2]int{{1, 1}, {2, 5}, {5, 2}, {6, 9}, {16, 16}} {
		for _, k := range []int{1, 3, 5} {
			for _, pad := range []int{0, 1, 2} {
				g := ConvGeom{InC: 2, InH: hw[0], InW: hw[1], K: k, Stride: 1, Pad: pad}
				if g.Validate() != nil {
					continue
				}
				x := draw(g.InC*g.InH*g.InW, true)
				rows, n := g.InC*k*k, g.OutH()*g.OutW()
				want, got := draw(rows*n, false), draw(rows*n, false)
				im2ColGeneral(want, x, g)
				im2ColStride1(got, x, g)
				requireSame("im2col", g, got, want)

				cols := draw(rows*n, false)
				wantImg, gotImg := make([]T, len(x)), make([]T, len(x))
				col2ImGeneral(wantImg, cols, g)
				col2ImStride1(gotImg, cols, g)
				requireSame("col2im", g, gotImg, wantImg)
			}
		}
	}
}
