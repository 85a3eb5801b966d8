package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mach-fl/mach/internal/tensor"
)

// twoBlobs generates a linearly separable 2-class dataset in the plane.
func twoBlobs(rng *rand.Rand, n int) (*tensor.Tensor, []int) {
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(2)
		cx := -1.5
		if c == 1 {
			cx = 1.5
		}
		x.Set(cx+rng.NormFloat64()*0.4, i, 0)
		x.Set(rng.NormFloat64()*0.4, i, 1)
		labels[i] = c
	}
	return x, labels
}

func TestMLPLearnsSeparableBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewMLP("blobs", 2, []int{8}, 2, rng)
	opt := NewSGD(0.2)
	for step := 0; step < 200; step++ {
		x, y := twoBlobs(rng, 16)
		net.TrainStep(x, y, opt)
	}
	xt, yt := twoBlobs(rng, 200)
	acc, _ := net.Evaluate(xt, yt)
	if acc < 0.97 {
		t.Fatalf("MLP failed to learn separable blobs: accuracy %.3f", acc)
	}
}

func TestTrainStepDecreasesLossOnFixedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewMLP("fixed", 4, []int{8}, 3, rng)
	opt := NewSGD(0.1)
	x := tensor.Randn(rng, 1, 12, 4)
	y := make([]int, 12)
	for i := range y {
		y[i] = rng.Intn(3)
	}
	first, _ := net.TrainStep(x, y, opt)
	var last float64
	for i := 0; i < 50; i++ {
		last, _ = net.TrainStep(x, y, opt)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %.4f, last %.4f", first, last)
	}
}

func TestTrainStepReportsPositiveGradNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewMLP("gn", 3, []int{4}, 2, rng)
	x := tensor.Randn(rng, 1, 4, 3)
	_, gn := net.TrainStep(x, []int{0, 1, 0, 1}, NewSGD(0.01))
	if gn <= 0 {
		t.Fatalf("gradient squared norm %v, want > 0", gn)
	}
}

func TestParamVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewMLP("rt", 5, []int{6, 4}, 3, rng)
	v := net.ParamVector()
	if len(v) != net.NumParams() {
		t.Fatalf("vector length %d != NumParams %d", len(v), net.NumParams())
	}
	other := NewMLP("rt", 5, []int{6, 4}, 3, rand.New(rand.NewSource(999)))
	if err := other.SetParamVector(v); err != nil {
		t.Fatal(err)
	}
	got := other.ParamVector()
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("round-trip mismatch at %d", i)
		}
	}
	if err := other.SetParamVector(v[:len(v)-1]); err == nil {
		t.Fatal("expected error for short vector")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewMLP("orig", 3, []int{5}, 2, rng)
	clone := net.Clone()
	v1, v2 := net.ParamVector(), clone.ParamVector()
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("clone parameter mismatch at %d", i)
		}
	}
	// Training the clone must not affect the original.
	x := tensor.Randn(rng, 1, 4, 3)
	clone.TrainStep(x, []int{0, 1, 1, 0}, NewSGD(0.5))
	v3 := net.ParamVector()
	for i := range v1 {
		if v1[i] != v3[i] {
			t.Fatal("training clone mutated original")
		}
	}
}

func TestCloneCNNStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net, err := NewCNN(MNISTCNNConfig(8, 8), rng)
	if err != nil {
		t.Fatal(err)
	}
	clone := net.Clone()
	if clone.NumParams() != net.NumParams() {
		t.Fatalf("clone has %d params, want %d", clone.NumParams(), net.NumParams())
	}
	x := tensor.Randn(rng, 1, 2, 1, 8, 8)
	a := net.Forward(x, false)
	b := clone.Forward(x, false)
	for i := range a.Data() {
		if math.Abs(a.Data()[i]-b.Data()[i]) > 1e-12 {
			t.Fatal("clone forward differs from original")
		}
	}
}

func TestMarshalBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewMLP("ckpt", 4, []int{5}, 3, rng)
	blob, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	other := NewMLP("ckpt", 4, []int{5}, 3, rand.New(rand.NewSource(13)))
	if err := other.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	a, b := net.ParamVector(), other.ParamVector()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("checkpoint round-trip mismatch at %d", i)
		}
	}
}

func TestUnmarshalBinaryErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewMLP("bad", 2, nil, 2, rng)
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte{1, 2, 3}},
		{"bad magic", make([]byte, 16)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := net.UnmarshalBinary(tt.data); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// TestSGDMomentumAndDecay pins that SGD has neither: the optimizer is Eq. (4)
// verbatim and carries nothing from one step to the next, so a repeated
// gradient moves the weight by the same γ·g every time (no velocity) and a
// zero gradient leaves it where it was (no decay).
func TestSGDMomentumAndDecay(t *testing.T) {
	p := newParam("w", tensor.FromSlice([]float64{1}, 1))
	p.Grad.Data()[0] = 1
	s := NewSGD(0.1)
	for step, want := range []float64{0.9, 0.8} {
		s.Step([]*Param{p})
		if math.Abs(p.Value.Data()[0]-want) > 1e-12 {
			t.Fatalf("after step %d: %v, want %v", step+1, p.Value.Data()[0], want)
		}
	}
	p.Grad.Data()[0] = 0
	s.Step([]*Param{p})
	if math.Abs(p.Value.Data()[0]-0.8) > 1e-12 {
		t.Fatalf("zero-gradient step moved the weight to %v", p.Value.Data()[0])
	}
	if s.LearningRate() != 0.1 {
		t.Fatalf("LearningRate = %v", s.LearningRate())
	}
	s.SetLearningRate(0.01)
	if s.LearningRate() != 0.01 {
		t.Fatalf("SetLearningRate not applied")
	}
}

// Property (Lemma 1 substrate): averaging parameter vectors is linear — the
// average of K identical networks equals the network itself, and averaging is
// permutation invariant.
func TestParamVectorAveragingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		vecs := make([][]float64, n)
		base := NewMLP("avg", 3, []int{4}, 2, rng)
		dim := base.NumParams()
		for i := range vecs {
			vecs[i] = make([]float64, dim)
			for j := range vecs[i] {
				vecs[i][j] = rng.NormFloat64()
			}
		}
		avg := make([]float64, dim)
		for _, v := range vecs {
			for j := range v {
				avg[j] += v[j] / float64(n)
			}
		}
		// permute and re-average
		perm := rng.Perm(n)
		avg2 := make([]float64, dim)
		for _, pi := range perm {
			for j := range vecs[pi] {
				avg2[j] += vecs[pi][j] / float64(n)
			}
		}
		for j := range avg {
			if math.Abs(avg[j]-avg2[j]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCNNConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     CNNConfig
		wantErr bool
	}{
		{"paper mnist arch", MNISTCNNConfig(16, 16), false},
		{"paper cifar arch", CIFARCNNConfig(16, 16), false},
		{"zero input", CNNConfig{Name: "z", InC: 0, InH: 4, InW: 4, Classes: 2}, true},
		{"one class", CNNConfig{Name: "o", InC: 1, InH: 4, InW: 4, Classes: 1}, true},
		{
			"odd pool",
			CNNConfig{Name: "p", InC: 1, InH: 5, InW: 5, Classes: 2,
				Convs: []ConvSpec{{OutC: 2, K: 3, Pad: 1, Pool: true}}},
			true,
		},
		{
			"kernel exceeds input",
			CNNConfig{Name: "k", InC: 1, InH: 2, InW: 2, Classes: 2,
				Convs: []ConvSpec{{OutC: 2, K: 5}}},
			true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestPaperArchitecturesBuildAndRun(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, cfg := range []CNNConfig{MNISTCNNConfig(16, 16), CIFARCNNConfig(16, 16)} {
		net, err := NewCNN(cfg, rng)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		x := tensor.Randn(rng, 1, 2, cfg.InC, cfg.InH, cfg.InW)
		out := net.Forward(x, false)
		if out.Dim(0) != 2 || out.Dim(1) != 10 {
			t.Fatalf("%s: output shape %v", cfg.Name, out.Shape())
		}
	}
}
