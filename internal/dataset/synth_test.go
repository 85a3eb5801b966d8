package dataset

import (
	"math"
	"math/rand"
	"testing"
)

func TestTaskSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*TaskSpec)
		wantErr bool
	}{
		{"valid", func(s *TaskSpec) {}, false},
		{"zero channels", func(s *TaskSpec) { s.InC = 0 }, true},
		{"one class", func(s *TaskSpec) { s.Classes = 1 }, true},
		{"zero separation", func(s *TaskSpec) { s.Sep = 0 }, true},
		{"overlap 1", func(s *TaskSpec) { s.Overlap = 1 }, true},
		{"negative overlap", func(s *TaskSpec) { s.Overlap = -0.1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := MNISTLike(8, 8)
			tt.mutate(&s)
			err := s.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestPresetDifficultyOrdering(t *testing.T) {
	m, f, c := MNISTLike(8, 8), FMNISTLike(8, 8), CIFAR10Like(8, 8)
	if !(m.Overlap < f.Overlap && f.Overlap < c.Overlap) {
		t.Fatalf("overlap ordering violated: %v %v %v", m.Overlap, f.Overlap, c.Overlap)
	}
	if !(m.Sep > f.Sep && f.Sep > c.Sep) {
		t.Fatalf("separation ordering violated: %v %v %v", m.Sep, f.Sep, c.Sep)
	}
	if c.InC != 3 {
		t.Fatalf("CIFAR10Like channels = %d, want 3", c.InC)
	}
}

func TestPrototypesDeterministicPerSeed(t *testing.T) {
	a, err := NewTask(MNISTLike(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTask(MNISTLike(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < a.Spec.Classes; c++ {
		pa, pb := a.prototypes[c], b.prototypes[c]
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("prototypes differ for class %d at %d", c, i)
			}
		}
	}
}

func TestOverlapControlsPrototypeCorrelation(t *testing.T) {
	corr := func(spec TaskSpec) float64 {
		task, err := NewTask(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Mean pairwise cosine similarity between class prototypes.
		total, pairs := 0.0, 0
		for a := 0; a < spec.Classes; a++ {
			for b := a + 1; b < spec.Classes; b++ {
				pa, pb := task.prototypes[a], task.prototypes[b]
				dot, na, nb := 0.0, 0.0, 0.0
				for i := range pa {
					dot += pa[i] * pb[i]
					na += pa[i] * pa[i]
					nb += pb[i] * pb[i]
				}
				total += dot / math.Sqrt(na*nb)
				pairs++
			}
		}
		return total / float64(pairs)
	}
	low := MNISTLike(8, 8)
	high := CIFAR10Like(8, 8)
	high.InC = 1 // same dimensionality for a fair comparison
	if cLow, cHigh := corr(low), corr(high); cLow >= cHigh {
		t.Fatalf("expected higher overlap to raise prototype similarity: %.3f vs %.3f", cLow, cHigh)
	}
}

func TestGenerateLabelsFollowDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	task, err := NewTask(MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	law := make([]float64, 10)
	law[2], law[7] = 0.7, 0.3
	d, err := task.Generate(rng, 5000, law)
	if err != nil {
		t.Fatal(err)
	}
	dist := d.ClassDistribution()
	if math.Abs(dist[2]-0.7) > 0.03 || math.Abs(dist[7]-0.3) > 0.03 {
		t.Fatalf("empirical distribution %v does not match law", dist)
	}
	for c, p := range dist {
		if c != 2 && c != 7 && p != 0 {
			t.Fatalf("class %d has mass %v, want 0", c, p)
		}
	}
}

func TestGenerateRejectsBadDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	task, err := NewTask(MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.Generate(rng, 10, []float64{1, 2}); err == nil {
		t.Fatal("expected error for wrong-length distribution")
	}
}

func TestSamplesAreLearnable(t *testing.T) {
	// A nearest-prototype classifier should beat chance comfortably on the
	// easiest task — this pins down that the synthetic data carries signal.
	rng := rand.New(rand.NewSource(6))
	task, err := NewTask(MNISTLike(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	d, err := task.Generate(rng, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < d.Len(); i++ {
		img := d.images[i]
		best, bestDist := -1, math.Inf(1)
		for c := 0; c < task.Spec.Classes; c++ {
			p := task.prototypes[c]
			dist := 0.0
			for j := range img {
				diff := img[j] - p[j]
				dist += diff * diff
			}
			if dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == d.Label(i) {
			correct++
		}
	}
	acc := float64(correct) / float64(d.Len())
	if acc < 0.9 {
		t.Fatalf("nearest-prototype accuracy %.3f, want ≥ 0.9", acc)
	}
}

func TestDifficultyOrderingEmpirically(t *testing.T) {
	// Nearest-prototype accuracy must strictly decrease across the three
	// presets, mirroring MNIST < FMNIST < CIFAR-10 difficulty.
	acc := func(spec TaskSpec) float64 {
		rng := rand.New(rand.NewSource(7))
		task, err := NewTask(spec)
		if err != nil {
			t.Fatal(err)
		}
		d, err := task.Generate(rng, 400, nil)
		if err != nil {
			t.Fatal(err)
		}
		correct := 0
		for i := 0; i < d.Len(); i++ {
			img := d.images[i]
			best, bestDist := -1, math.Inf(1)
			for c := 0; c < task.Spec.Classes; c++ {
				p := task.prototypes[c]
				dist := 0.0
				for j := range img {
					diff := img[j] - p[j]
					dist += diff * diff
				}
				if dist < bestDist {
					best, bestDist = c, dist
				}
			}
			if best == d.Label(i) {
				correct++
			}
		}
		return float64(correct) / float64(d.Len())
	}
	am, af, ac := acc(MNISTLike(8, 8)), acc(FMNISTLike(8, 8)), acc(CIFAR10Like(8, 8))
	if !(am > af && af > ac) {
		t.Fatalf("difficulty ordering violated: mnist %.3f, fmnist %.3f, cifar %.3f", am, af, ac)
	}
}
