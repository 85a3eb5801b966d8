package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// refMatMulIKJ is the reference i-k-j kernel the blocked implementation must
// reproduce bit-for-bit (identical per-element accumulation order).
func refMatMulIKJ(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.data[i*k+p]
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

// TestBlockedMatMulBitIdenticalToNaive covers shapes around every block
// boundary so all partial-block paths run, plus sizes large enough to
// trigger the row-parallel dispatch.
func TestBlockedMatMulBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 2}, {8, 8, 8},
		{mmBlockI - 1, mmBlockK - 1, 17},
		{mmBlockI, mmBlockK, 16},
		{mmBlockI + 1, mmBlockK + 1, 9},
		{2*mmBlockI + 3, mmBlockK + 7, 33},
		{160, 160, 160}, // above mmParallelFlops: exercises rowParallel
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		a.data[rng.Intn(len(a.data))] = 0 // exercise the zero-skip
		want := refMatMulIKJ(a, b)
		got := matMul(a, b)
		for i := range want.data {
			if got.data[i] != want.data[i] {
				t.Fatalf("%dx%dx%d: blocked result differs from naive at %d: %v vs %v",
					m, k, n, i, got.data[i], want.data[i])
			}
		}
		into := New(m, n)
		into.Fill(3.14) // dirty scratch must be fully overwritten
		MatMulInto(into, a, b)
		for i := range want.data {
			if into.data[i] != want.data[i] {
				t.Fatalf("%dx%dx%d: MatMulInto differs from naive at %d", m, k, n, i)
			}
		}
	}
}

func TestMatMulTransIntoMatchAllocatingForms(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range [][3]int{{4, 6, 5}, {33, 65, 17}, {128, 64, 96}} {
		m, k, n := s[0], s[1], s[2]

		// aᵀ·b with a (k×m), b (k×n).
		at := Randn(rng, 1, k, m)
		b := Randn(rng, 1, k, n)
		wantA := matMulTransA(at, b)
		gotA := New(m, n)
		gotA.Fill(-1)
		MatMulTransAInto(gotA, at, b)
		for i := range wantA.data {
			if gotA.data[i] != wantA.data[i] {
				t.Fatalf("TransAInto %v differs at %d", s, i)
			}
		}

		// a·bᵀ with a (m×k), b (n×k).
		a := Randn(rng, 1, m, k)
		bt := Randn(rng, 1, n, k)
		wantB := matMulTransB(a, bt)
		gotB := New(m, n)
		gotB.Fill(-1)
		MatMulTransBInto(gotB, a, bt)
		for i := range wantB.data {
			if gotB.data[i] != wantB.data[i] {
				t.Fatalf("TransBInto %v differs at %d", s, i)
			}
		}
	}
}

func TestMatMulIntoShapeMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"into":   func() { MatMulInto(New(2, 2), New(2, 3), New(3, 3)) },
		"transA": func() { MatMulTransAInto(New(2, 2), New(3, 2), New(3, 3)) },
		"transB": func() { MatMulTransBInto(New(2, 2), New(2, 3), New(3, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected shape-mismatch panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestIm2ColColIntoReuseDirtyScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := ConvGeom{InC: 2, InH: 6, InW: 6, K: 3, Stride: 1, Pad: 1}
	x := Randn(rng, 1, 2, 6, 6)
	want := im2Col(x, g)
	dst := New(want.Dim(0), want.Dim(1))
	dst.Fill(42)
	Im2ColInto(dst, x, g)
	for i := range want.data {
		if dst.data[i] != want.data[i] {
			t.Fatalf("Im2ColInto differs at %d", i)
		}
	}

	wantImg := col2Im(want, g)
	img := New(2, 6, 6)
	img.Fill(-7)
	Col2ImInto(img, want, g)
	for i := range wantImg.data {
		if img.data[i] != wantImg.data[i] {
			t.Fatalf("Col2ImInto differs at %d", i)
		}
	}
}

func benchmarkMatMulSize(b *testing.B, size int) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, size, size)
	y := Randn(rng, 1, size, size)
	dst := New(size, size)
	b.ReportAllocs()
	b.SetBytes(int64(8 * size * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

func BenchmarkMatMul64(b *testing.B)  { benchmarkMatMulSize(b, 64) }
func BenchmarkMatMul128(b *testing.B) { benchmarkMatMulSize(b, 128) }
func BenchmarkMatMul256(b *testing.B) { benchmarkMatMulSize(b, 256) }
func BenchmarkMatMul512(b *testing.B) { benchmarkMatMulSize(b, 512) }

func BenchmarkMatMulNaive128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 128, 128)
	y := Randn(rng, 1, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refMatMulIKJ(x, y)
	}
}

func BenchmarkMatMulTransB(b *testing.B) {
	for _, size := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := Randn(rng, 1, size, size)
			y := Randn(rng, 1, size, size)
			dst := New(size, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTransBInto(dst, x, y)
			}
		})
	}
}

// trainShapes are the products one minibatch (8 images, 16×16) of the paper's
// 2-conv CNN runs under each kernel form — the sizes every paper-scale
// workload spends its time in, unlike the 64–512 squares above. Each row is
// (m, k, n) of an m×n output reduced over k.
var trainShapes = map[string][][3]int{
	"plain":  {{8, 9, 256}, {16, 72, 64}, {8, 64, 256}}, // conv1/conv2 forward W·cols, fc1 dX = grad·W
	"transA": {{9, 8, 256}, {72, 16, 64}, {64, 8, 256}}, // conv1/conv2 dcols = Wᵀ·g, fc1 dW = gradᵀ·x
	"transB": {{8, 256, 9}, {16, 64, 72}, {8, 256, 64}}, // conv1/conv2 dW = g·colsᵀ, fc1 forward x·Wᵀ
}

// BenchmarkGEMMTrainShapes reports achieved GFLOP/s (2·m·k·n per product) of
// the three f64 kernel forms and their f32 twins at the training shapes: the
// per-kernel roofline rows for EXPERIMENTS.md.
func BenchmarkGEMMTrainShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, form := range []string{"plain", "transA", "transB"} {
		for _, s := range trainShapes[form] {
			m, k, n := s[0], s[1], s[2]
			// Operand layouts per form: plain a m×k, b k×n; transA a k×m,
			// b k×n; transB a m×k, b n×k. Only the shapes differ, not sizes.
			ar, ac, br, bc := m, k, k, n
			switch form {
			case "transA":
				ar, ac = k, m
			case "transB":
				br, bc = n, k
			}
			a64, b64, dst64 := Randn(rng, 1, ar, ac), Randn(rng, 1, br, bc), New(m, n)
			a32, _ := randn32(rng, m*k)
			b32, _ := randn32(rng, k*n)
			dst32 := make([]float32, m*n)
			run := func(lane string, pass func()) {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", form, m, k, n, lane), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						pass()
					}
					b.ReportMetric(2*float64(m*k*n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
				})
			}
			switch form {
			case "plain":
				run("f64", func() { MatMulInto(dst64, a64, b64) })
				run("f32", func() { MatMul32Into(dst32, a32, b32, m, k, n) })
			case "transA":
				run("f64", func() { MatMulTransAInto(dst64, a64, b64) })
				run("f32", func() {
					clear(dst32) // the f32 form accumulates; clear like the lane does
					MatMulTransA32Acc(dst32, a32, b32, k, m, n)
				})
			case "transB":
				run("f64", func() { MatMulTransBInto(dst64, a64, b64) })
				run("f32", func() { MatMulTransB32Into(dst32, a32, b32, m, k, n) })
			}
		}
	}
}

// BenchmarkMachinePeakF64 measures the arithmetic ceiling of the vector f64
// kernels on this machine: independent register-only VMULPD/VADDPD pairs with
// no loads, stores or FMA, reported in the GFLOP/s of the rows above.
func BenchmarkMachinePeakF64(b *testing.B) {
	if !useAVX2 {
		b.Skip("no vector kernels in this build")
	}
	const iters = 1 << 16 // 128 flops each
	for i := 0; i < b.N; i++ {
		machinePeakAVX2(iters)
	}
	b.ReportMetric(128*iters*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
}

// BenchmarkMachinePeakF32 is the same ceiling for the vector f32 kernels:
// register-only VMULPS/VADDPS pairs, eight lanes each.
func BenchmarkMachinePeakF32(b *testing.B) {
	if !useAVX2 {
		b.Skip("no vector kernels in this build")
	}
	const iters = 1 << 16 // 256 flops each
	for i := 0; i < b.N; i++ {
		machinePeak32AVX2(iters)
	}
	b.ReportMetric(256*iters*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
}
