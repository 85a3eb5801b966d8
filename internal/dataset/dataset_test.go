package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mach-fl/mach/internal/tensor"
)

func TestDatasetAppendAndBatch(t *testing.T) {
	d := NewDataset("toy", 1, 2, 2, 3)
	if err := d.Append([]float64{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Append([]float64{5, 6, 7, 8}, 2); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	x, y := d.Batch([]int{1, 0})
	if x.Dim(0) != 2 || x.Dim(1) != 1 || x.Dim(2) != 2 || x.Dim(3) != 2 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if y[0] != 2 || y[1] != 0 {
		t.Fatalf("batch labels %v", y)
	}
	if x.Data()[0] != 5 || x.Data()[7] != 4 {
		t.Fatal("batch pixels misordered")
	}
}

func TestDatasetAppendErrors(t *testing.T) {
	d := NewDataset("toy", 1, 2, 2, 3)
	tests := []struct {
		name  string
		image []float64
		label int
	}{
		{"short image", []float64{1}, 0},
		{"long image", make([]float64, 5), 0},
		{"negative label", make([]float64, 4), -1},
		{"label too big", make([]float64, 4), 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := d.Append(tt.image, tt.label); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestClassHistogramAndDistribution(t *testing.T) {
	d := NewDataset("toy", 1, 1, 1, 3)
	for _, l := range []int{0, 0, 1, 2, 2, 2} {
		if err := d.Append([]float64{0}, l); err != nil {
			t.Fatal(err)
		}
	}
	h := d.ClassHistogram()
	if h[0] != 2 || h[1] != 1 || h[2] != 3 {
		t.Fatalf("histogram %v", h)
	}
	dist := d.ClassDistribution()
	want := []float64{2.0 / 6, 1.0 / 6, 3.0 / 6}
	for c := range want {
		if math.Abs(dist[c]-want[c]) > 1e-12 {
			t.Fatalf("dist[%d] = %v, want %v", c, dist[c], want[c])
		}
	}
}

func TestRandomBatchWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	task, err := NewTask(MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	d, err := task.Generate(rng, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]int, 32) // larger than the dataset: with replacement
	d.RandomBatchInto(rng, tensor.New(32, d.InC, d.InH, d.InW), y, make([]int, 32))
	for _, l := range y {
		if l < 0 || l >= 10 {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestAllReturnsEverySample(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	task, err := NewTask(MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	d, err := task.Generate(rng, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, y := d.All()
	if x.Dim(0) != 7 || len(y) != 7 {
		t.Fatalf("All returned %d samples", x.Dim(0))
	}
}

func TestSampleClassRespectsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	weights := []float64{0, 1, 0, 3}
	counts := make([]int, 4)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[SampleClass(rng, weights)]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight classes sampled: %v", counts)
	}
	frac := float64(counts[3]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("class 3 frequency %v, want ≈ 0.75", frac)
	}
}

// Property: SampleClass always returns a valid index with positive weight
// whenever at least one weight is positive.
func TestSampleClassValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		w[rng.Intn(n)] = 1 // guarantee positive mass
		c := SampleClass(rng, w)
		return c >= 0 && c < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// RandomBatchInto must draw exactly one Intn per slot, in slot order, and
// fill the pixels/labels Batch gives for those indices — the simulator's
// determinism across worker counts depends on it.
func TestRandomBatchIntoMatchesBatch(t *testing.T) {
	d := NewDataset("toy", 1, 2, 2, 3)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 9; i++ {
		img := make([]float64, 4)
		for j := range img {
			img[j] = rng.NormFloat64()
		}
		if err := d.Append(img, i%3); err != nil {
			t.Fatal(err)
		}
	}
	const size = 5
	r1 := rand.New(rand.NewSource(99))
	r2 := rand.New(rand.NewSource(99))
	drawn := make([]int, size)
	for i := range drawn {
		drawn[i] = r1.Intn(d.Len())
	}
	wantX, wantY := d.Batch(drawn)

	x := tensor.New(size, 1, 2, 2)
	for i := range x.Data() {
		x.Data()[i] = -1 // dirty scratch must be fully overwritten
	}
	labels := make([]int, size)
	idx := make([]int, size)
	d.RandomBatchInto(r2, x, labels, idx)
	for i, v := range wantX.Data() {
		if x.Data()[i] != v {
			t.Fatalf("pixel %d differs: %v vs %v", i, x.Data()[i], v)
		}
	}
	for i, v := range wantY {
		if labels[i] != v {
			t.Fatalf("label %d differs", i)
		}
	}
	if r1.Int63() != r2.Int63() {
		t.Fatal("RNG streams diverged")
	}
}

func TestBatchIntoRejectsWrongSizes(t *testing.T) {
	d := NewDataset("toy", 1, 2, 2, 3)
	if err := d.Append([]float64{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for undersized buffers")
		}
	}()
	d.BatchInto(tensor.New(1, 1, 1, 1), make([]int, 1), []int{0})
}
