package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mach-fl/mach/internal/tensor"
)

// This file keeps the arithmetic the tiled kernels and branch-free layers
// replaced — singly-accumulated GEMM loops, the branchy masked ReLU, Conv2D
// and Dense that always form their input gradient — as test-only oracles,
// and checks that whole training steps still agree with them bit for bit.

// refMatMul is a·b in i-p-j order with the exact-zero skip.
func refMatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := tensor.New(m, n)
	ad, bd, od := a.Data(), b.Data(), out.Data()
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := ad[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				od[i*n+j] += av * bd[p*n+j]
			}
		}
	}
	return out
}

// refMatMulTransA is aᵀ·b in p-i-j order with the exact-zero skip.
func refMatMulTransA(a, b *tensor.Tensor) *tensor.Tensor {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := tensor.New(m, n)
	ad, bd, od := a.Data(), b.Data(), out.Data()
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := ad[p*m+i]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				od[i*n+j] += av * bd[p*n+j]
			}
		}
	}
	return out
}

// refMatMulTransB is a·bᵀ as one plain ascending-p dot per element.
func refMatMulTransB(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	out := tensor.New(m, n)
	ad, bd, od := a.Data(), b.Data(), out.Data()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += ad[i*k+p] * bd[j*k+p]
			}
			od[i*n+j] = s
		}
	}
	return out
}

// refReLU is the branchy ReLU with a stored mask.
type refReLU struct{ mask []bool }

func (r *refReLU) Name() string     { return "ref-relu" }
func (r *refReLU) Params() []*Param { return nil }
func (r *refReLU) clone() Layer     { return &refReLU{} }

func (r *refReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	r.mask = make([]bool, out.Len())
	data := out.Data()
	for i, v := range data {
		pos := v > 0
		if !pos {
			data[i] = 0
		}
		r.mask[i] = pos
	}
	return out
}

func (r *refReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	data := out.Data()
	for i := range data {
		if !r.mask[i] {
			data[i] = 0
		}
	}
	return out
}

// refDense is Dense on the reference kernels, sharing the real layer's
// parameters.
type refDense struct {
	w, b  *Param
	lastX *tensor.Tensor
}

func (d *refDense) Name() string     { return "ref-dense" }
func (d *refDense) Params() []*Param { return []*Param{d.w, d.b} }
func (d *refDense) clone() Layer     { panic("refDense: not cloneable") }

func (d *refDense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.lastX = x
	out := refMatMulTransB(x, d.w.Value)
	batch, width := out.Dim(0), out.Dim(1)
	for i := 0; i < batch; i++ {
		for j := 0; j < width; j++ {
			out.Data()[i*width+j] += d.b.Value.Data()[j]
		}
	}
	return out
}

func (d *refDense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.w.Grad.AddInPlace(refMatMulTransA(grad, d.lastX))
	batch, width := grad.Dim(0), grad.Dim(1)
	for i := 0; i < batch; i++ {
		for j := 0; j < width; j++ {
			d.b.Grad.Data()[j] += grad.Data()[i*width+j]
		}
	}
	return refMatMul(grad, d.w.Value)
}

// refConv2D is Conv2D on the reference kernels, always forming dX.
type refConv2D struct {
	geom     tensor.ConvGeom
	outC     int
	w, b     *Param
	lastCols []*tensor.Tensor
}

func (c *refConv2D) Name() string     { return "ref-conv" }
func (c *refConv2D) Params() []*Param { return []*Param{c.w, c.b} }
func (c *refConv2D) clone() Layer     { panic("refConv2D: not cloneable") }

func (c *refConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.geom
	batch, n := x.Dim(0), g.OutH()*g.OutW()
	imgLen := g.InC * g.InH * g.InW
	out := tensor.New(batch, c.outC, g.OutH(), g.OutW())
	c.lastCols = make([]*tensor.Tensor, batch)
	for i := 0; i < batch; i++ {
		img := tensor.FromSlice(x.Data()[i*imgLen:(i+1)*imgLen], g.InC, g.InH, g.InW)
		c.lastCols[i] = tensor.New(g.InC*g.K*g.K, n)
		tensor.Im2ColInto(c.lastCols[i], img, g)
		res := refMatMul(c.w.Value, c.lastCols[i])
		dst := out.Data()[i*c.outC*n : (i+1)*c.outC*n]
		copy(dst, res.Data())
		for oc := 0; oc < c.outC; oc++ {
			for j := 0; j < n; j++ {
				dst[oc*n+j] += c.b.Value.Data()[oc]
			}
		}
	}
	return out
}

func (c *refConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := c.geom
	batch, n := grad.Dim(0), g.OutH()*g.OutW()
	imgLen := g.InC * g.InH * g.InW
	dx := tensor.New(batch, g.InC, g.InH, g.InW)
	for i := 0; i < batch; i++ {
		gmat := tensor.FromSlice(grad.Data()[i*c.outC*n:(i+1)*c.outC*n], c.outC, n)
		c.w.Grad.AddInPlace(refMatMulTransB(gmat, c.lastCols[i]))
		for oc := 0; oc < c.outC; oc++ {
			s := 0.0
			for _, v := range gmat.Data()[oc*n : (oc+1)*n] {
				s += v
			}
			c.b.Grad.Data()[oc] += s
		}
		dimg := tensor.FromSlice(dx.Data()[i*imgLen:(i+1)*imgLen], g.InC, g.InH, g.InW)
		tensor.Col2ImInto(dimg, refMatMulTransA(c.w.Value, gmat), g)
	}
	return dx
}

// referenceTwin rebuilds net layer for layer on the reference arithmetic,
// with its own copy of the parameters. MaxPool2 and Flatten are unchanged
// code and are reused as they are.
func referenceTwin(t *testing.T, net *Network) *Network {
	t.Helper()
	var layers []Layer
	for _, l := range net.Clone().Layers() {
		switch l := l.(type) {
		case *Conv2D:
			layers = append(layers, &refConv2D{geom: l.geom, outC: l.outC, w: l.w, b: l.b})
		case *Dense:
			layers = append(layers, &refDense{w: l.w, b: l.b})
		case *ReLU:
			layers = append(layers, &refReLU{})
		case *MaxPool2, *Flatten:
			layers = append(layers, l)
		default:
			t.Fatalf("referenceTwin: no reference form of %T", l)
		}
	}
	return NewNetwork("ref-"+net.Name(), layers...)
}

// TestTrainStepsBitIdenticalToReferenceArithmetic trains the paper's 2-conv
// CNN (and an MLP, whose first parameter layer sits behind a Flatten) for
// several steps on the production layers and on their reference twins: the
// losses, gradient norms and final parameter vectors must agree in every
// bit. This is the network-level form of the kernel sweep in
// internal/tensor — it also covers the ReLU rewrite and the skipped
// first-layer input gradient.
func TestTrainStepsBitIdenticalToReferenceArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cnn, err := NewCNN(MNISTCNNConfig(16, 16), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*Network{cnn, NewMLP("mlp", 256, []int{32}, 10, rng)} {
		ref := referenceTwin(t, net)
		opt, refOpt := NewSGD(0.05), NewSGD(0.05)
		const batch = 8
		labels := make([]int, batch)
		for step := 0; step < 6; step++ {
			x := tensor.Randn(rng, 1, batch, 1, 16, 16)
			for i := range labels {
				labels[i] = rng.Intn(10)
			}
			loss, norm := net.TrainStep(x, labels, opt)
			refLoss, refNorm := ref.TrainStep(x, labels, refOpt)
			if math.Float64bits(loss) != math.Float64bits(refLoss) || math.Float64bits(norm) != math.Float64bits(refNorm) {
				t.Fatalf("%s step %d: loss %v / ‖g‖² %v, reference arithmetic gives %v / %v",
					net.Name(), step, loss, norm, refLoss, refNorm)
			}
		}
		got, want := net.ParamVector(), ref.ParamVector()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: parameter %d = %v, reference arithmetic gives %v", net.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestTrainStepSkipsOnlyTheUnreadInputGradient checks that the training
// step's shortcut changes nothing a caller can observe: parameter gradients
// equal those of a full Backward, which still returns the input gradient.
func TestTrainStepSkipsOnlyTheUnreadInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	net, err := NewCNN(MNISTCNNConfig(8, 8), rng)
	if err != nil {
		t.Fatal(err)
	}
	full := net.Clone()
	x := tensor.Randn(rng, 1, 4, 1, 8, 8)
	labels := []int{1, 0, 7, 3}

	full.ZeroGrad()
	_, grad := lossAndGrad(full.Forward(x, true), labels)
	dx := backward(full, grad)
	if dx == nil || !shapeEqual(dx.Shape(), x.Shape()) {
		t.Fatalf("Backward returned input gradient %v, want shape %v", dx, x.Shape())
	}
	if dx.SquaredNorm() == 0 {
		t.Fatal("Backward returned an all-zero input gradient")
	}

	net.TrainStep(x, labels, NewSGD(1e-300)) // gradients stay in place; weights move by nothing visible
	got, want := gradVector(net), gradVector(full)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("gradient %d = %v via TrainStep, %v via full Backward", i, got[i], want[i])
		}
	}
}

// TestReLUMatchesBranchySemantics drives the bit-mask ReLU over every class
// of float64 — zeros of both signs, NaNs of both signs, infinities,
// denormals, extremes — forward and backward against the branchy reference.
func TestReLUMatchesBranchySemantics(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1),
		math.NaN(), -math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFFFFFFFFFFFFFFF),
		math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), -math.Float64frombits(0x000FFFFFFFFFFFFF),
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 1e-300, -1e-300,
	}
	// Every input meets every gradient: len(values)² pairs.
	n := len(values)
	x, grad := tensor.New(n, n), tensor.New(n, n)
	for i, v := range values {
		for j, g := range values {
			x.Data()[i*n+j] = v
			grad.Data()[i*n+j] = g
		}
	}
	relu, ref := NewReLU("relu"), &refReLU{}
	for _, train := range []bool{false, true} {
		got, want := relu.Forward(x, train), ref.Forward(x, train)
		for i := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(want.Data()[i]) {
				t.Fatalf("Forward(%v, train=%v) = %v (%#x), branchy ReLU gives %v (%#x)", x.Data()[i], train,
					got.Data()[i], math.Float64bits(got.Data()[i]), want.Data()[i], math.Float64bits(want.Data()[i]))
			}
		}
	}
	got, want := relu.Backward(grad), ref.Backward(grad)
	for i := range want.Data() {
		if math.Float64bits(got.Data()[i]) != math.Float64bits(want.Data()[i]) {
			t.Fatalf("Backward(grad %v at input %v) = %v (%#x), branchy ReLU gives %v (%#x)", grad.Data()[i], x.Data()[i],
				got.Data()[i], math.Float64bits(got.Data()[i]), want.Data()[i], math.Float64bits(want.Data()[i]))
		}
	}
}
