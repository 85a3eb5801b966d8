package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mach-fl/mach/internal/tensor"
)

// lossAndGrad is SoftmaxCrossEntropyInto with a fresh gradient tensor.
func lossAndGrad(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	grad := tensor.New(logits.Dim(0), logits.Dim(1))
	return SoftmaxCrossEntropyInto(logits, labels, grad), grad
}

// numericalGrad estimates d(loss)/d(param[i]) with central differences.
func numericalGrad(net *Network, x *tensor.Tensor, labels []int, p *Param, i int) float64 {
	const h = 1e-5
	orig := p.Value.Data()[i]
	p.Value.Data()[i] = orig + h
	lossPlus, _ := lossAndGrad(net.Forward(x, false), labels)
	p.Value.Data()[i] = orig - h
	lossMinus, _ := lossAndGrad(net.Forward(x, false), labels)
	p.Value.Data()[i] = orig
	return (lossPlus - lossMinus) / (2 * h)
}

// checkGradients verifies analytic vs numerical gradients on a sample of
// coordinates from every parameter of the network.
func checkGradients(t *testing.T, net *Network, x *tensor.Tensor, labels []int, rng *rand.Rand) {
	t.Helper()
	net.ZeroGrad()
	logits := net.Forward(x, true)
	_, grad := lossAndGrad(logits, labels)
	net.Backward(grad)
	for _, p := range net.Params() {
		n := p.Value.Len()
		samples := 8
		if n < samples {
			samples = n
		}
		for s := 0; s < samples; s++ {
			i := rng.Intn(n)
			analytic := p.Grad.Data()[i]
			numeric := numericalGrad(net, x, labels, p, i)
			scale := math.Max(1e-4, math.Abs(analytic)+math.Abs(numeric))
			if math.Abs(analytic-numeric)/scale > 1e-4 {
				t.Fatalf("%s[%d]: analytic %.8g vs numeric %.8g", p.Name, i, analytic, numeric)
			}
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork("dense-test",
		NewDense("fc1", 6, 5, rng),
		NewReLU("r1"),
		NewDense("fc2", 5, 3, rng),
	)
	x := tensor.Randn(rng, 1, 4, 6)
	labels := []int{0, 1, 2, 1}
	checkGradients(t, net, x, labels, rng)
}

func TestConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, K: 3, Stride: 1, Pad: 1}
	net := NewNetwork("conv-test",
		NewConv2D("c1", g, 3, rng),
		NewReLU("r1"),
		NewFlatten("flat"),
		NewDense("fc", 3*6*6, 4, rng),
	)
	x := tensor.Randn(rng, 1, 3, 2, 6, 6)
	labels := []int{0, 3, 1}
	checkGradients(t, net, x, labels, rng)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, K: 3, Stride: 1, Pad: 1}
	net := NewNetwork("pool-test",
		NewConv2D("c1", g, 2, rng),
		NewMaxPool2("p1"),
		NewFlatten("flat"),
		NewDense("fc", 2*2*2, 3, rng),
	)
	x := tensor.Randn(rng, 1, 2, 1, 4, 4)
	labels := []int{2, 0}
	checkGradients(t, net, x, labels, rng)
}

func TestFullCNNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := CNNConfig{
		Name: "tiny-cnn",
		InC:  1, InH: 8, InW: 8,
		Convs: []ConvSpec{
			{OutC: 2, K: 3, Pad: 1, Pool: true},
			{OutC: 4, K: 3, Pad: 1, Pool: true},
		},
		Hidden:  []int{8},
		Classes: 4,
	}
	net, err := NewCNN(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 2, 1, 8, 8)
	labels := []int{1, 3}
	checkGradients(t, net, x, labels, rng)
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	// Uniform logits over C classes → loss = ln C, grad rows sum to 0.
	logits := tensor.New(2, 4)
	loss, grad := lossAndGrad(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform-logit loss = %v, want ln 4 = %v", loss, math.Log(4))
	}
	for i := 0; i < 2; i++ {
		rowSum := 0.0
		for j := 0; j < 4; j++ {
			rowSum += grad.At(i, j)
		}
		if math.Abs(rowSum) > 1e-12 {
			t.Fatalf("grad row %d sums to %v, want 0", i, rowSum)
		}
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	// Huge logits must not overflow to NaN/Inf.
	logits := tensor.FromSlice([]float64{1e4, -1e4, 0, 1e4}, 1, 4)
	loss, grad := lossAndGrad(logits, []int{1})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss not finite: %v", loss)
	}
	for _, v := range grad.Data() {
		if math.IsNaN(v) {
			t.Fatal("grad contains NaN")
		}
	}
}

// TestSoftmaxRowsAreDistributions reads the softmax back out of the loss
// gradient, B·grad + onehot(labels), and checks every row is a distribution.
func TestSoftmaxRowsAreDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	labels := []int{0, 6, 3, 3, 1}
	_, grad := lossAndGrad(tensor.Randn(rng, 3, 5, 7), labels)
	for i := 0; i < 5; i++ {
		sum := 0.0
		for j := 0; j < 7; j++ {
			v := 5 * grad.At(i, j)
			if j == labels[i] {
				v++
			}
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v out of [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

// TestArgmax: evaluation counts a sample correct exactly when its label is
// the row's largest logit.
func TestArgmax(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		0.1, 0.9, 0.0,
		2.0, -1.0, 1.0,
		0.0, 0.0, 5.0,
	}, 3, 3)
	net := NewNetwork("identity", NewFlatten("flat"))
	for _, tc := range []struct {
		labels []int
		want   int
	}{{[]int{1, 0, 2}, 3}, {[]int{0, 0, 2}, 2}, {[]int{2, 1, 0}, 0}} {
		if got, _ := net.EvaluateSums(logits, tc.labels); got != tc.want {
			t.Fatalf("labels %v: %d correct, want %d", tc.labels, got, tc.want)
		}
	}
}
