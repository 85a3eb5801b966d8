package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// TaskSpec describes a synthetic class-conditional image task. Each class c
// has a fixed prototype image P_c; a sample of class c is P_c + ε with
// ε ~ N(0, 1) i.i.d. per pixel. Prototypes are drawn once per task seed as
//
//	P_c = s·(√(1−Overlap)·U_c + √(Overlap)·S)
//
// where U_c is a class-unique random image, S a shared random image, and the
// scale s is chosen so that the expected pairwise discriminant z-score
// ‖P_a−P_b‖/2 equals Sep regardless of resolution or Overlap. Sep therefore
// controls the task's Bayes-achievable accuracy directly: larger Sep means an
// easier task. The MNIST→FMNIST→CIFAR-10 difficulty ordering of the paper is
// realised with decreasing Sep values.
type TaskSpec struct {
	Name    string
	InC     int
	InH     int
	InW     int
	Classes int
	// Sep is the expected pairwise class-separation z-score; the optimal
	// (nearest-prototype) classifier confuses a fixed pair of classes with
	// probability ≈ Φ(−Sep).
	Sep float64
	// Overlap in [0,1) mixes a component shared by all classes into every
	// prototype, shaping inter-class correlation without changing Sep.
	Overlap float64
	// ProtoSeed fixes the class prototypes so that train and test sets of
	// the same task agree on what each class looks like.
	ProtoSeed int64
}

// Validate reports whether the spec is usable.
func (s TaskSpec) Validate() error {
	switch {
	case s.InC <= 0 || s.InH <= 0 || s.InW <= 0:
		return fmt.Errorf("dataset: task %q has non-positive dims", s.Name)
	case s.Classes < 2:
		return fmt.Errorf("dataset: task %q needs ≥ 2 classes", s.Name)
	case s.Sep <= 0:
		return fmt.Errorf("dataset: task %q has non-positive separation", s.Name)
	case s.Overlap < 0 || s.Overlap >= 1:
		return fmt.Errorf("dataset: task %q overlap %v outside [0,1)", s.Name, s.Overlap)
	}
	return nil
}

// MNISTLike is the easiest task: single channel, well-separated classes. It
// plays the role of MNIST in the evaluation.
func MNISTLike(inH, inW int) TaskSpec {
	return TaskSpec{
		Name: "mnistlike", InC: 1, InH: inH, InW: inW, Classes: 10,
		Sep: 2.8, Overlap: 0.15, ProtoSeed: 101,
	}
}

// FMNISTLike is a harder single-channel task with more confusable classes,
// playing the role of Fashion-MNIST.
func FMNISTLike(inH, inW int) TaskSpec {
	return TaskSpec{
		Name: "fmnistlike", InC: 1, InH: inH, InW: inW, Classes: 10,
		Sep: 2.1, Overlap: 0.45, ProtoSeed: 202,
	}
}

// CIFAR10Like is the hardest task: three channels, strongly overlapping
// low-SNR classes, playing the role of CIFAR-10.
func CIFAR10Like(inH, inW int) TaskSpec {
	return TaskSpec{
		Name: "cifar10like", InC: 3, InH: inH, InW: inW, Classes: 10,
		Sep: 1.6, Overlap: 0.65, ProtoSeed: 303,
	}
}

// Task is an instantiated synthetic task: the spec plus its realized class
// prototypes. A single Task generates arbitrarily many train/test samples
// with consistent class semantics.
type Task struct {
	Spec       TaskSpec
	prototypes [][]float64 // [Classes][InC*InH*InW]
}

// NewTask realizes the class prototypes of a spec.
func NewTask(spec TaskSpec) (*Task, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.ProtoSeed))
	n := spec.InC * spec.InH * spec.InW
	shared := make([]float64, n)
	for i := range shared {
		shared[i] = rng.NormFloat64()
	}
	// E‖P_a−P_b‖² = 2(1−Overlap)·n·s², so s = 2·Sep / √(2(1−Overlap)·n)
	// yields E‖P_a−P_b‖/2 ≈ Sep under unit per-pixel noise.
	scale := 2 * spec.Sep / math.Sqrt(2*(1-spec.Overlap)*float64(n))
	wuniq := scale * math.Sqrt(1-spec.Overlap)
	wshared := scale * math.Sqrt(spec.Overlap)
	protos := make([][]float64, spec.Classes)
	for c := range protos {
		p := make([]float64, n)
		for i := range p {
			p[i] = wuniq*rng.NormFloat64() + wshared*shared[i]
		}
		protos[c] = p
	}
	return &Task{Spec: spec, prototypes: protos}, nil
}

// Sample draws one image of class c.
func (t *Task) Sample(rng *rand.Rand, c int) []float64 {
	p := t.prototypes[c]
	img := make([]float64, len(p))
	for i := range img {
		img[i] = p[i] + rng.NormFloat64()
	}
	return img
}

// Generate draws n samples whose labels follow the given class distribution
// (defaulting to uniform when classDist is nil).
func (t *Task) Generate(rng *rand.Rand, n int, classDist []float64) (*Dataset, error) {
	if classDist != nil && len(classDist) != t.Spec.Classes {
		return nil, fmt.Errorf("dataset: class distribution has %d entries, want %d", len(classDist), t.Spec.Classes)
	}
	d := NewDataset(t.Spec.Name, t.Spec.InC, t.Spec.InH, t.Spec.InW, t.Spec.Classes)
	for i := 0; i < n; i++ {
		var c int
		if classDist == nil {
			c = rng.Intn(t.Spec.Classes)
		} else {
			c = SampleClass(rng, classDist)
		}
		if err := d.Append(t.Sample(rng, c), c); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// SampleClass draws a class index from a (not necessarily normalized)
// non-negative weight vector.
func SampleClass(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	u := rng.Float64() * total
	acc := 0.0
	for c, w := range weights {
		acc += w
		if u < acc {
			return c
		}
	}
	return len(weights) - 1
}
