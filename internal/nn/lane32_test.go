package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mach-fl/mach/internal/tensor"
)

// laneTestBatch draws one random batch as both the flat f64 slice Lane32
// consumes and the tensor the f64 network consumes (same storage layout).
func laneTestBatch(rng *rand.Rand, batch int, shape ...int) (*tensor.Tensor, []float64, []int) {
	dims := append([]int{batch}, shape...)
	x := tensor.Randn(rng, 1, dims...)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return x, x.Data(), labels
}

// TestLane32TracksF64Trajectory trains the same seeded MLP in both lanes on
// identical batches and checks the f32 trajectory stays within float32
// tolerance of the f64 one — losses per step and final parameters.
func TestLane32TracksF64Trajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewMLP("lane-mlp", 16, []int{16}, 10, rng)
	lane, err := NewLane32(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := lane.LoadParams(0, net.ParamVector()); err != nil {
		t.Fatal(err)
	}
	opt := NewSGD(0.05)
	losses := make([]float64, 1)
	norms := make([]float64, 1)
	batchRng := rand.New(rand.NewSource(12))
	for step := 0; step < 30; step++ {
		x, flat, labels := laneTestBatch(batchRng, 8, 16)
		loss64, norm64 := net.TrainStep(x, labels, opt)
		lane.SetInput(0, 8, flat)
		lane.TrainStep(1, 8, [][]int{labels}, 0.05, losses, norms)
		if math.Abs(losses[0]-loss64) > 1e-4*(1+math.Abs(loss64)) {
			t.Fatalf("step %d: f32 loss %v vs f64 loss %v", step, losses[0], loss64)
		}
		if math.Abs(norms[0]-norm64) > 1e-3*(1+norm64) {
			t.Fatalf("step %d: f32 ‖g‖² %v vs f64 %v", step, norms[0], norm64)
		}
	}
	p64 := net.ParamVector()
	p32 := lane.Master(0)
	for i := range p64 {
		if math.Abs(p32[i]-p64[i]) > 1e-3*(1+math.Abs(p64[i])) {
			t.Fatalf("param %d diverged: f32 lane %v vs f64 %v", i, p32[i], p64[i])
		}
	}
}

// TestLane32TracksF64CNN runs the conv/pool pipeline through both lanes.
func TestLane32TracksF64CNN(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := CNNConfig{
		Name: "lane-cnn",
		InC:  1, InH: 8, InW: 8,
		Convs: []ConvSpec{
			{OutC: 2, K: 3, Pad: 1, Pool: true},
			{OutC: 4, K: 3, Pad: 1, Pool: true},
		},
		Hidden:  []int{8},
		Classes: 10,
	}
	net, err := NewCNN(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	lane, err := NewLane32(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := lane.LoadParams(0, net.ParamVector()); err != nil {
		t.Fatal(err)
	}
	opt := NewSGD(0.05)
	losses, norms := make([]float64, 1), make([]float64, 1)
	batchRng := rand.New(rand.NewSource(14))
	for step := 0; step < 5; step++ {
		x, flat, labels := laneTestBatch(batchRng, 4, 1, 8, 8)
		loss64, _ := net.TrainStep(x, labels, opt)
		lane.SetInput(0, 4, flat)
		lane.TrainStep(1, 4, [][]int{labels}, 0.05, losses, norms)
		if math.Abs(losses[0]-loss64) > 1e-4*(1+math.Abs(loss64)) {
			t.Fatalf("step %d: f32 loss %v vs f64 loss %v", step, losses[0], loss64)
		}
	}
	p64 := net.ParamVector()
	p32 := lane.Master(0)
	for i := range p64 {
		if math.Abs(p32[i]-p64[i]) > 1e-3*(1+math.Abs(p64[i])) {
			t.Fatalf("param %d diverged: f32 lane %v vs f64 %v", i, p32[i], p64[i])
		}
	}
}

// TestLane32GradCheck verifies the f32 lane's analytic gradients against
// central differences on the float64 master weights, with the looser
// tolerance float32 arithmetic warrants.
func TestLane32GradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := NewNetwork("lane-gradcheck",
		NewDense("fc1", 6, 5, rng),
		NewReLU("r1"),
		NewDense("fc2", 5, 3, rng),
	)
	lane, err := NewLane32(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := net.ParamVector()
	x, flat, _ := laneTestBatch(rng, 4, 6)
	_ = x
	labels := []int{0, 1, 2, 1}
	losses, norms := make([]float64, 1), make([]float64, 1)
	lossAt := func(params []float64) float64 {
		if err := lane.LoadParams(0, params); err != nil {
			t.Fatal(err)
		}
		lane.SetInput(0, 4, flat)
		lane.TrainStep(1, 4, [][]int{labels}, 0, losses, norms) // lr=0: loss+grads only
		return losses[0]
	}
	lossAt(v)
	analytic := make([]float64, len(v))
	for i, g := range lane.grads[0] {
		analytic[i] = float64(g)
	}
	const h = 1e-3
	for s := 0; s < 40; s++ {
		i := rng.Intn(len(v))
		orig := v[i]
		v[i] = orig + h
		plus := lossAt(v)
		v[i] = orig - h
		minus := lossAt(v)
		v[i] = orig
		numeric := (plus - minus) / (2 * h)
		scale := math.Max(1e-2, math.Abs(analytic[i])+math.Abs(numeric))
		if math.Abs(analytic[i]-numeric)/scale > 2e-2 {
			t.Fatalf("param %d: analytic %.6g vs numeric %.6g", i, analytic[i], numeric)
		}
	}
}

// TestLane32FusedSlotsBitIdenticalToSolo is the f32 fusion contract: a
// multi-slot fused step must produce bit-identical per-slot results to
// independent single-slot lanes, regardless of which slot a device occupies.
func TestLane32FusedSlotsBitIdenticalToSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	net := NewMLP("lane-fused", 16, []int{16}, 10, rng)
	const slots = 3
	fused, err := NewLane32(net, slots)
	if err != nil {
		t.Fatal(err)
	}
	solos := make([]*Lane32, slots)
	params := make([][]float64, slots)
	inputs := make([][]float64, slots)
	labels := make([][]int, slots)
	for s := 0; s < slots; s++ {
		solo, err := NewLane32(net, 1)
		if err != nil {
			t.Fatal(err)
		}
		solos[s] = solo
		perturbed := net.ParamVector()
		for i := range perturbed {
			perturbed[i] += 0.01 * rng.NormFloat64()
		}
		params[s] = perturbed
		_, flat, lb := laneTestBatch(rng, 8, 16)
		inputs[s], labels[s] = flat, lb
	}
	fLoss, fNorm := make([]float64, slots), make([]float64, slots)
	sLoss, sNorm := make([]float64, 1), make([]float64, 1)
	for step := 0; step < 3; step++ {
		for s := 0; s < slots; s++ {
			if err := fused.LoadParams(s, params[s]); err != nil {
				t.Fatal(err)
			}
			fused.SetInput(s, 8, inputs[s])
		}
		fused.TrainStep(slots, 8, labels, 0.05, fLoss, fNorm)
		for s := 0; s < slots; s++ {
			if err := solos[s].LoadParams(0, params[s]); err != nil {
				t.Fatal(err)
			}
			solos[s].SetInput(0, 8, inputs[s])
			solos[s].TrainStep(1, 8, labels[s:s+1], 0.05, sLoss, sNorm)
			if fLoss[s] != sLoss[0] || fNorm[s] != sNorm[0] {
				t.Fatalf("step %d slot %d: fused (loss %v, norm %v) != solo (loss %v, norm %v)",
					step, s, fLoss[s], fNorm[s], sLoss[0], sNorm[0])
			}
			fp := append([]float64(nil), fused.Master(s)...)
			sp := solos[s].Master(0)
			for i := range fp {
				if math.Float64bits(fp[i]) != math.Float64bits(sp[i]) {
					t.Fatalf("step %d slot %d param %d: fused %v != solo %v", step, s, i, fp[i], sp[i])
				}
			}
			params[s] = fp // continue both trajectories from the same point
		}
	}
}

// TestLane32SteadyStateZeroAllocs pins the lane-aware scratch contract: once
// the pooled buffers exist, SetInput+TrainStep allocates nothing.
func TestLane32SteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := NewMLP("lane-alloc", 16, []int{32, 16}, 10, rng)
	lane, err := NewLane32(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, flat, labelRow := laneTestBatch(rng, 8, 16)
	labels := [][]int{labelRow, labelRow}
	losses, norms := make([]float64, 2), make([]float64, 2)
	v := net.ParamVector()
	for s := 0; s < 2; s++ {
		if err := lane.LoadParams(s, v); err != nil {
			t.Fatal(err)
		}
		lane.SetInput(s, 8, flat)
	}
	lane.TrainStep(2, 8, labels, 0.05, losses, norms) // warm-up installs buffers
	allocs := testing.AllocsPerRun(20, func() {
		lane.SetInput(0, 8, flat)
		lane.SetInput(1, 8, flat)
		lane.TrainStep(2, 8, labels, 0.05, losses, norms)
	})
	if allocs != 0 {
		t.Fatalf("steady-state f32 TrainStep allocates %v objects per call", allocs)
	}
}

// stochasticLayer stands in for any layer the lane has no op for — the kind
// Dropout was: an identity whose training-mode behaviour the float32
// executor cannot reproduce.
type stochasticLayer struct{}

func (stochasticLayer) Name() string                                    { return "stochastic" }
func (stochasticLayer) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor { return x }
func (stochasticLayer) Backward(g *tensor.Tensor) *tensor.Tensor        { return g }
func (stochasticLayer) Params() []*Param                                { return nil }
func (stochasticLayer) clone() Layer                                    { return stochasticLayer{} }

// TestLane32RejectsDropout: a layer the lane cannot execute must fail at
// construction, not at runtime.
func TestLane32RejectsDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	net := NewNetwork("lane-drop",
		NewDense("fc", 8, 8, rng),
		stochasticLayer{},
		NewDense("out", 8, 4, rng),
	)
	if _, err := NewLane32(net, 1); err == nil {
		t.Fatal("NewLane32 accepted a layer it has no op for")
	}
}

// refRelu32, refReluGrad32 and refMaxPool32 are the branchy loops the lane ran
// before the tensor elementwise kernels replaced them, kept as oracles.
func refRelu32(out, in []float32) {
	for i, v := range in {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

func refReluGrad32(gin, gout, fwd []float32) {
	for i, v := range fwd {
		if v > 0 {
			gin[i] = gout[i]
		} else {
			gin[i] = 0
		}
	}
}

func refMaxPool32(out []float32, am []int32, in []float32, planes, h, w int) {
	oi := 0
	for bc := 0; bc < planes; bc++ {
		for oy := 0; oy < h/2; oy++ {
			rowTop := bc*h*w + 2*oy*w
			for ox := 0; ox < w/2; ox++ {
				i0 := rowTop + 2*ox
				best, bestIdx := in[i0], i0
				for _, i := range []int{i0 + 1, i0 + w, i0 + w + 1} {
					if in[i] > best {
						best, bestIdx = in[i], i
					}
				}
				out[oi], am[oi] = best, int32(bestIdx)
				oi++
			}
		}
	}
}

// TestLane32ElementwiseMatchesReferenceLoops compares the ReLU
// forward/backward and 2×2 pool kernels the lane calls with the loops they
// replaced, bit for bit and index for index, on inputs dense in ties, ±0, ±Inf
// and NaN.
func TestLane32ElementwiseMatchesReferenceLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	inf := float32(math.Inf(1))
	pool := []float32{0, float32(math.Copysign(0, -1)), inf, -inf, float32(math.NaN()),
		math.Float32frombits(0xFFC00001), 1, 1, -1, 2, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32}
	draw := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			if rng.Intn(3) == 0 {
				v[i] = float32(rng.NormFloat64())
			} else {
				v[i] = pool[rng.Intn(len(pool))]
			}
		}
		return v
	}
	same := func(name string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %v (%#x), reference loop gives %v (%#x)", name, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	const planes, h, w = 3, 6, 10
	n := planes * h * w
	for rep := 0; rep < 50; rep++ {
		in, gout := draw(n), draw(n)
		want, got := draw(n), draw(n) // dirty destinations
		refRelu32(want, in)
		tensor.Relu(got, in)
		same("Relu", got, want)

		fwd := want // a forward output: +0 or positive
		wantG, gotG := draw(n), draw(n)
		refReluGrad32(wantG, gout, fwd)
		tensor.ReluGrad(gotG, gout, fwd)
		same("ReluGrad", gotG, wantG)

		on := n / 4
		wantP, gotP := draw(on), draw(on)
		wantA, gotA := make([]int32, on), make([]int32, on)
		refMaxPool32(wantP, wantA, in, planes, h, w)
		tensor.MaxPool2x2(gotP, gotA, in, w)
		same("MaxPool2x2", gotP, wantP)
		for i := range wantA {
			if gotA[i] != wantA[i] {
				t.Fatalf("MaxPool2x2 argmax[%d] = %d, reference loop gives %d", i, gotA[i], wantA[i])
			}
		}
	}
}

// BenchmarkLane32TrainStepByOp splits one fused f32 training step of the paper
// cell — the MNIST CNN on 16×16 inputs, batch 8, five slots, what
// benchmark/probes.go times whole as nn.train_step_f32_us — by op kind and
// direction, so the budget inside hfl.train_share adds up the way the one
// around it does: "step" is the whole TrainStep, the other rows run one kind's
// ops for every slot on the buffers a real step left behind ("update" is the
// gradient clear and the float64 master update). ns/op is per training step.
func BenchmarkLane32TrainStepByOp(b *testing.B) {
	const slots, batch = 5, 8
	rng := rand.New(rand.NewSource(31))
	net, err := NewCNN(MNISTCNNConfig(16, 16), rng)
	if err != nil {
		b.Fatal(err)
	}
	lane, err := NewLane32(net, slots)
	if err != nil {
		b.Fatal(err)
	}
	_, flat, labelRow := laneTestBatch(rng, batch, 1, 16, 16)
	labels := make([][]int, slots)
	losses, norms := make([]float64, slots), make([]float64, slots)
	for s := range labels {
		labels[s] = labelRow
		if err := lane.LoadParams(s, net.ParamVector()); err != nil {
			b.Fatal(err)
		}
		lane.SetInput(s, batch, flat)
	}
	lane.TrainStep(slots, batch, labels, 0.05, losses, norms)
	b.Run("step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lane.TrainStep(slots, batch, labels, 0.05, losses, norms)
		}
	})
	for _, k := range []struct {
		name string
		kind lane32Kind
	}{{"conv", laneOpConv}, {"relu", laneOpReLU}, {"pool", laneOpPool}, {"dense", laneOpDense}} {
		b.Run(k.name+"/forward", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range lane.ops {
					for s := 0; s < slots && lane.ops[j].kind == k.kind; s++ {
						lane.forwardOp(&lane.ops[j], s, batch)
					}
				}
			}
		})
		b.Run(k.name+"/backward", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range lane.ops {
					for s := 0; s < slots && lane.ops[j].kind == k.kind; s++ {
						lane.backwardOp(&lane.ops[j], s, batch, lane.gradA, lane.gradB, j > 0)
					}
				}
			}
		})
	}
	last := lane.ops[len(lane.ops)-1]
	b.Run("loss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := 0; s < slots; s++ {
				lane.lossInto(last.outBuf[s*batch*lane.classes:(s+1)*batch*lane.classes], labelRow,
					lane.gradA[s*batch*lane.classes:(s+1)*batch*lane.classes], batch)
			}
		}
	})
	b.Run("update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := 0; s < slots; s++ {
				clear(lane.grads[s])
				tensor.MasterUpdate32(lane.master[s], lane.params[s], lane.grads[s], 0.05)
			}
		}
	})
}
