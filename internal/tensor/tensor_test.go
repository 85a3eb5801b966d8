package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewShapesAndLen(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		want  int
	}{
		{"vector", []int{5}, 5},
		{"matrix", []int{3, 4}, 12},
		{"image", []int{3, 8, 8}, 192},
		{"batch", []int{2, 3, 4, 5}, 120},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := New(tt.shape...)
			if got := x.Len(); got != tt.want {
				t.Fatalf("Len() = %d, want %d", got, tt.want)
			}
			if x.Rank() != len(tt.shape) {
				t.Fatalf("Rank() = %d, want %d", x.Rank(), len(tt.shape))
			}
			for _, v := range x.Data() {
				if v != 0 {
					t.Fatalf("New tensor not zero-filled: %v", v)
				}
			}
		})
	}
}

func TestInvalidShapePanics(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"empty shape", func() { New() }},
		{"zero dim", func() { New(3, 0) }},
		{"negative dim", func() { New(-1) }},
		{"from slice mismatch", func() { FromSlice([]float64{1, 2}, 3) }},
		{"reshape mismatch", func() { New(4).Reshape(5) }},
		{"index out of range", func() { New(2, 2).At(2, 0) }},
		{"index wrong rank", func() { New(2, 2).At(1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tt.fn()
		})
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	k := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for l := 0; l < 4; l++ {
				x.Set(k, i, j, l)
				k++
			}
		}
	}
	// Row-major layout means the data slice should be 0..23 in order.
	for i, v := range x.Data() {
		if v != float64(i) {
			t.Fatalf("data[%d] = %v, want %d", i, v, i)
		}
	}
	if got := x.At(1, 2, 3); got != 23 {
		t.Fatalf("At(1,2,3) = %v, want 23", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	y := x.Clone()
	y.Data()[0] = 99
	if x.Data()[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

// TestWindowsShareStorage checks the batch form of FromSlice: each window has
// the shape, covers its own stretch of data and writes through to it.
func TestWindowsShareStorage(t *testing.T) {
	data := make([]float64, 3*2*4)
	ws := Windows(data, 2, 4)
	if len(ws) != 3 {
		t.Fatalf("Windows cut %d tensors, want 3", len(ws))
	}
	for i, w := range ws {
		if w.Rank() != 2 || w.Dim(0) != 2 || w.Dim(1) != 4 {
			t.Fatalf("window %d has shape %v, want [2 4]", i, w.Shape())
		}
		w.Set(float64(i+1), 1, 3)
		if data[i*8+7] != float64(i+1) {
			t.Fatalf("window %d does not write through to data[%d]", i, i*8+7)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Windows accepted a length that is no multiple of the shape")
		}
	}()
	Windows(data[:9], 2, 4)
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 4)
	y := x.Reshape(2, 2)
	y.Set(42, 0, 1)
	if x.At(1) != 42 {
		t.Fatal("Reshape must share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)

	sum := a.Clone().AddInPlace(b)
	for i, want := range []float64{5, 7, 9} {
		if sum.Data()[i] != want {
			t.Fatalf("AddInPlace[%d] = %v, want %v", i, sum.Data()[i], want)
		}
	}
	diff := a.Clone().SubInPlace(b)
	for i, want := range []float64{-3, -3, -3} {
		if diff.Data()[i] != want {
			t.Fatalf("SubInPlace[%d] = %v, want %v", i, diff.Data()[i], want)
		}
	}
	prod := a.Clone().MulInPlace(b)
	for i, want := range []float64{4, 10, 18} {
		if prod.Data()[i] != want {
			t.Fatalf("MulInPlace[%d] = %v, want %v", i, prod.Data()[i], want)
		}
	}
	scaled := a.Clone().ScaleInPlace(2)
	for i, want := range []float64{2, 4, 6} {
		if scaled.Data()[i] != want {
			t.Fatalf("ScaleInPlace[%d] = %v, want %v", i, scaled.Data()[i], want)
		}
	}
	axpy := a.Clone().AxpyInPlace(10, b)
	for i, want := range []float64{41, 52, 63} {
		if axpy.Data()[i] != want {
			t.Fatalf("AxpyInPlace[%d] = %v, want %v", i, axpy.Data()[i], want)
		}
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{1, -2, 3, -4}, 2, 2)
	if got := x.Sum(); got != -2 {
		t.Fatalf("Sum = %v, want -2", got)
	}
	if got := x.Mean(); got != -0.5 {
		t.Fatalf("Mean = %v, want -0.5", got)
	}
	if got := x.Max(); got != 3 {
		t.Fatalf("Max = %v, want 3", got)
	}
	if got := x.SquaredNorm(); got != 30 {
		t.Fatalf("SquaredNorm = %v, want 30", got)
	}
	if got := x.Norm2(); !almostEqual(got, math.Sqrt(30), 1e-12) {
		t.Fatalf("Norm2 = %v, want sqrt(30)", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := matMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if got.Data()[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, got.Data()[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	got := matMul(a, id)
	for i, v := range got.Data() {
		if !almostEqual(v, a.Data()[i], 1e-12) {
			t.Fatalf("A·I differs from A at %d: %v vs %v", i, v, a.Data()[i])
		}
	}
}

// naiveMatMul is an independent reference implementation used to cross-check
// the cache-friendly kernel.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		got, want := matMul(a, b), naiveMatMul(a, b)
		for i := range got.Data() {
			if !almostEqual(got.Data()[i], want.Data()[i], 1e-10) {
				t.Fatalf("trial %d: MatMul differs from naive at %d", trial, i)
			}
		}
	}
}

func TestMatMulTransformsAgreeWithExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, 1, k, m) // for TransA
		b := Randn(rng, 1, k, n)
		got := matMulTransA(a, b)
		want := matMul(transpose2D(a), b)
		for i := range got.Data() {
			if !almostEqual(got.Data()[i], want.Data()[i], 1e-10) {
				t.Fatalf("TransA differs from explicit transpose at %d", i)
			}
		}
		c := Randn(rng, 1, m, k)
		d := Randn(rng, 1, n, k) // for TransB
		got2 := matMulTransB(c, d)
		want2 := matMul(c, transpose2D(d))
		for i := range got2.Data() {
			if !almostEqual(got2.Data()[i], want2.Data()[i], 1e-10) {
				t.Fatalf("TransB differs from explicit transpose at %d", i)
			}
		}
	}
}

func TestMatMulInto(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	dst := full(99, 2, 2) // pre-filled garbage must be overwritten
	MatMulInto(dst, a, b)
	want := matMul(a, b)
	for i := range dst.Data() {
		if dst.Data()[i] != want.Data()[i] {
			t.Fatalf("MatMulInto[%d] = %v, want %v", i, dst.Data()[i], want.Data()[i])
		}
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := transpose2D(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("transpose shape = %v", at.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// Property: matrix multiplication distributes over addition,
// A·(B+C) == A·B + A·C.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c := Randn(rng, 1, k, n)
		left := matMul(a, b.Clone().AddInPlace(c))
		right := matMul(a, b).AddInPlace(matMul(a, c))
		for i := range left.Data() {
			if !almostEqual(left.Data()[i], right.Data()[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the scale of a tensor's norm is absolutely homogeneous,
// ‖s·x‖ = |s|·‖x‖.
func TestNormHomogeneityProperty(t *testing.T) {
	f := func(seed int64, s float64) bool {
		if math.IsNaN(s) || math.IsInf(s, 0) || math.Abs(s) > 1e6 {
			return true // skip pathological scales
		}
		rng := rand.New(rand.NewSource(seed))
		x := Randn(rng, 1, 3, 3)
		want := math.Abs(s) * x.Norm2()
		got := x.Clone().ScaleInPlace(s).Norm2()
		return almostEqual(got, want, 1e-6*(1+want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// full returns a tensor with every element set to v.
func full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	t.Fill(v)
	return t
}

func TestFillApplyAndString(t *testing.T) {
	x := full(3, 2, 2)
	for _, v := range x.Data() {
		if v != 3 {
			t.Fatalf("Full value %v", v)
		}
	}
	x.Fill(1.5)
	if x.At(1, 1) != 1.5 {
		t.Fatal("Fill failed")
	}
	x.Apply(func(v float64) float64 { return v * 2 })
	if x.At(0, 0) != 3 {
		t.Fatal("Apply failed")
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero failed")
	}
	if s := x.String(); s == "" {
		t.Fatal("empty String")
	}
	big := New(100)
	if s := big.String(); s == "" {
		t.Fatal("large-tensor String should still print the shape")
	}
}

func TestUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := uniform(rng, -2, 5, 1000)
	for _, v := range x.Data() {
		if v < -2 || v >= 5 {
			t.Fatalf("uniform draw %v outside [-2,5)", v)
		}
	}
	// Mean near the midpoint.
	if m := x.Mean(); m < 0.8 || m > 2.2 {
		t.Fatalf("uniform mean %v, want ≈ 1.5", m)
	}
}

func TestSameShapeAndDim(t *testing.T) {
	a, b, c := New(2, 3), New(2, 3), New(3, 2)
	if !a.SameShape(b) || a.SameShape(c) || a.SameShape(New(6)) {
		t.Fatal("SameShape wrong")
	}
	if a.Dim(0) != 2 || a.Dim(1) != 3 || a.Rank() != 2 {
		t.Fatal("Dim/Rank wrong")
	}
}
