package nn

import (
	"fmt"
	"math"

	"github.com/mach-fl/mach/internal/tensor"
)

// Lane32 executes the float32 compute lane (DESIGN.md §10): forward/backward
// passes run entirely in float32 over pooled flat buffers, while every
// aggregation boundary stays float64 — per-slot master weights, the SGD
// update, the loss, and the gradient squared norm that feeds MACH sampling.
// One Lane32 serves S "slots", each a logical device sharing the same
// architecture: slot activations live side by side in one strided buffer per
// layer, so a fused per-edge step walks the network layer-by-layer across all
// slots with cache-hot, contiguous data (the cross-device batch fusion of
// ROADMAP item 5). With slots == 1 it is the unfused per-device f32 executor.
//
// Numeric contract:
//
//   - Master weights are float64. Each TrainStep applies w64 -= lr·float64(g32)
//     and re-rounds the float32 compute copy from the master, so optimizer
//     arithmetic and the parameter vectors exchanged with edge/cloud
//     aggregation never accumulate float32 rounding.
//   - Losses and squared gradient norms are accumulated in float64.
//   - Everything in between — matmuls, im2col, activations, pooling — is
//     float32.
//
// Lane32 is deterministic: given the same loaded params and inputs it
// produces bit-identical float32 results regardless of how many other slots
// are active or how work is scheduled around it (all execution is serial
// inside TrainStep). It is not safe for concurrent use.
type Lane32 struct {
	name      string
	ops       []lane32Op
	paramLen  int
	sampleLen int
	classes   int
	slots     int
	batch     int // batch size the pooled buffers are currently sized for

	master [][]float64 // per-slot f64 master weights, Params() layout
	params [][]float32 // per-slot f32 compute copy of master
	grads  [][]float32 // per-slot f32 gradient accumulator

	inBuf        []float32 // network input, strided [slot][batch][sampleLen]
	gradA, gradB []float32 // ping-pong gradient buffers, S·B·maxLen each

	// Shared serial scratch (TrainStep never runs ops concurrently).
	dw, dcols []float32
	expRow    []float64
}

type lane32Kind uint8

const (
	laneOpDense lane32Kind = iota
	laneOpConv
	laneOpReLU
	laneOpPool
)

// lane32Op is one compiled layer. Buffer fields are pooled across slots and
// strided slot-major; inRef aliases the previous op's outBuf (or the lane
// input buffer), which doubles as the cached forward input for backward.
type lane32Op struct {
	kind lane32Kind
	name string

	inLen, outLen int // per-sample element counts

	wOff, bOff int // flat param offsets of the weights and biases
	in, out    int // dense dims

	geom   tensor.ConvGeom
	outC   int
	cr, sp int // conv: im2col rows (InC·K·K) and spatial size (OutH·OutW)

	w int // pool: input row width

	outBuf []float32
	inRef  []float32
	cols   []float32 // conv: cached column matrices, [slot][image][cr·sp]
	argmax []int32   // pool: flat input index per output element
}

// NewLane32 compiles net's layer stack into a float32 executor with the given
// number of slots. It returns an error for layer types the lane has no op
// for.
func NewLane32(net *Network, slots int) (*Lane32, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("nn: Lane32 needs at least one slot, got %d", slots)
	}
	l := &Lane32{name: net.Name(), slots: slots}
	off := 0
	var shape []int // per-sample shape, nil until anchored by a Dense or Conv2D
	prod := func() int {
		n := 1
		for _, d := range shape {
			n *= d
		}
		return n
	}
	maxDW, maxDcols := 0, 0
	for _, layer := range net.Layers() {
		lOff := off
		for _, p := range layer.Params() {
			off += p.Value.Len()
		}
		switch t := layer.(type) {
		case *Flatten:
			// Lane data is already flat and contiguous; flattening is the
			// identity and compiles to nothing.
			if shape != nil {
				shape = []int{prod()}
			}
		case *Dense:
			if shape != nil && prod() != t.in {
				return nil, fmt.Errorf("nn: Lane32: %s expects %d inputs, previous layer yields %d", t.name, t.in, prod())
			}
			l.ops = append(l.ops, lane32Op{
				kind: laneOpDense, name: t.name,
				in: t.in, out: t.out, wOff: lOff, bOff: lOff + t.out*t.in,
				inLen: t.in, outLen: t.out,
			})
			shape = []int{t.out}
		case *Conv2D:
			g := t.geom
			if shape == nil {
				shape = []int{g.InC, g.InH, g.InW}
			} else if len(shape) != 3 || shape[0] != g.InC || shape[1] != g.InH || shape[2] != g.InW {
				return nil, fmt.Errorf("nn: Lane32: %s expects input [%d %d %d], previous layer yields %v", t.name, g.InC, g.InH, g.InW, shape)
			}
			cr, sp := g.InC*g.K*g.K, g.OutH()*g.OutW()
			l.ops = append(l.ops, lane32Op{
				kind: laneOpConv, name: t.name,
				geom: g, outC: t.outC, cr: cr, sp: sp,
				wOff: lOff, bOff: lOff + t.outC*cr,
				inLen: g.InC * g.InH * g.InW, outLen: t.outC * sp,
			})
			shape = []int{t.outC, g.OutH(), g.OutW()}
			if t.outC*cr > maxDW {
				maxDW = t.outC * cr
			}
			if cr*sp > maxDcols {
				maxDcols = cr * sp
			}
		case *ReLU:
			if shape == nil {
				return nil, fmt.Errorf("nn: Lane32: %s before any shape-defining layer", t.name)
			}
			n := prod()
			l.ops = append(l.ops, lane32Op{kind: laneOpReLU, name: t.name, inLen: n, outLen: n})
		case *MaxPool2:
			if len(shape) != 3 {
				return nil, fmt.Errorf("nn: Lane32: %s needs a [C H W] input, have %v", t.name, shape)
			}
			c, h, w := shape[0], shape[1], shape[2]
			if h%2 != 0 || w%2 != 0 {
				return nil, fmt.Errorf("nn: Lane32: %s requires even H and W, got %dx%d", t.name, h, w)
			}
			l.ops = append(l.ops, lane32Op{
				kind: laneOpPool, name: t.name, w: w,
				inLen: c * h * w, outLen: c * (h / 2) * (w / 2),
			})
			shape = []int{c, h / 2, w / 2}
		default:
			return nil, fmt.Errorf("nn: Lane32 does not support layer %T (%s); use the float64 lane", layer, layer.Name())
		}
	}
	if len(l.ops) == 0 {
		return nil, fmt.Errorf("nn: Lane32: network %q compiles to no ops", net.Name())
	}
	l.paramLen = off
	l.sampleLen = l.ops[0].inLen
	l.classes = l.ops[len(l.ops)-1].outLen
	l.master = make([][]float64, slots)
	l.params = make([][]float32, slots)
	l.grads = make([][]float32, slots)
	for s := 0; s < slots; s++ {
		l.master[s] = make([]float64, off)
		l.params[s] = make([]float32, off)
		l.grads[s] = make([]float32, off)
	}
	l.dw = make([]float32, maxDW)
	l.dcols = make([]float32, maxDcols)
	l.expRow = make([]float64, l.classes)
	return l, nil
}

// Slots returns the number of device slots the lane was built with.
func (l *Lane32) Slots() int { return l.slots }

// LoadParams installs a flat float64 parameter vector (Network.ParamVector
// layout) as slot's master weights and rounds the float32 compute copy.
func (l *Lane32) LoadParams(slot int, v []float64) error {
	if len(v) != l.paramLen {
		return fmt.Errorf("nn: Lane32 parameter vector length %d does not match network %q (%d params)", len(v), l.name, l.paramLen)
	}
	m, p := l.master[slot], l.params[slot]
	copy(m, v)
	for i, x := range m {
		p[i] = float32(x)
	}
	return nil
}

// ParamsInto appends slot's float64 master weights to dst[:0] and returns
// the slice — the aggregation-boundary view of the slot, free of float32
// round-trips.
func (l *Lane32) ParamsInto(slot int, dst []float64) []float64 {
	return append(dst[:0], l.master[slot]...)
}

// SetInput converts a flat float64 batch ([batch][sampleLen]) into slot's
// strided float32 input window. All slots of one TrainStep must use the same
// batch size; changing it resizes the pooled buffers and invalidates inputs
// staged for other slots.
func (l *Lane32) SetInput(slot, batch int, src []float64) {
	if len(src) != batch*l.sampleLen {
		panic(fmt.Sprintf("nn: Lane32 input %d floats, want %d (batch %d × sample %d)", len(src), batch*l.sampleLen, batch, l.sampleLen))
	}
	l.ensure(batch)
	dst := l.inBuf[slot*batch*l.sampleLen : (slot+1)*batch*l.sampleLen]
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// TrainStep runs one fused SGD minibatch over slots 0..active-1: float32
// forward, softmax cross-entropy, float32 backward, float64 master update.
// labels[s], losses[s] and sqNorms[s] are per-slot; lr applies to all slots.
func (l *Lane32) TrainStep(active, batch int, labels [][]int, lr float64, losses, sqNorms []float64) {
	if active <= 0 {
		return
	}
	if active > l.slots {
		panic(fmt.Sprintf("nn: Lane32 asked for %d active slots, built with %d", active, l.slots))
	}
	if len(labels) < active || len(losses) < active || len(sqNorms) < active {
		panic("nn: Lane32.TrainStep per-slot slices shorter than active count")
	}
	l.ensure(batch)
	for s := 0; s < active; s++ {
		clear(l.grads[s])
	}
	for i := range l.ops {
		op := &l.ops[i]
		for s := 0; s < active; s++ {
			l.forwardOp(op, s, batch)
		}
	}
	last := &l.ops[len(l.ops)-1]
	for s := 0; s < active; s++ {
		logits := last.outBuf[s*batch*l.classes : (s+1)*batch*l.classes]
		gseg := l.gradA[s*batch*l.classes : (s+1)*batch*l.classes]
		losses[s] = l.lossInto(logits, labels[s], gseg, batch)
	}
	gout, gin := l.gradA, l.gradB
	for i := len(l.ops) - 1; i >= 0; i-- {
		op := &l.ops[i]
		// The first op's input gradient has no consumer — nothing reads
		// gin below op 0 — so its (often largest) dX product is skipped.
		needGin := i > 0
		for s := 0; s < active; s++ {
			l.backwardOp(op, s, batch, gout, gin, needGin)
		}
		gout, gin = gin, gout
	}
	// Aggregation boundary: norms and the SGD update run in float64 against
	// the master weights, then the float32 copy is re-rounded.
	for s := 0; s < active; s++ {
		sqNorms[s] = tensor.MasterUpdate32(l.master[s], l.params[s], l.grads[s], lr)
	}
}

// ensure sizes the pooled buffers for the given batch, reusing capacity. In
// steady state (fixed batch) it is a comparison and a return.
func (l *Lane32) ensure(batch int) {
	if batch == l.batch {
		return
	}
	l.batch = batch
	S := l.slots
	l.inBuf = grow32(l.inBuf, S*batch*l.sampleLen)
	maxLen := 0
	for i := range l.ops {
		op := &l.ops[i]
		op.outBuf = grow32(op.outBuf, S*batch*op.outLen)
		switch op.kind {
		case laneOpConv:
			op.cols = grow32(op.cols, S*batch*op.cr*op.sp)
		case laneOpPool:
			op.argmax = growI32(op.argmax, S*batch*op.outLen)
		}
		if op.inLen > maxLen {
			maxLen = op.inLen
		}
		if op.outLen > maxLen {
			maxLen = op.outLen
		}
	}
	l.gradA = grow32(l.gradA, S*batch*maxLen)
	l.gradB = grow32(l.gradB, S*batch*maxLen)
	prev := l.inBuf
	for i := range l.ops {
		l.ops[i].inRef = prev
		prev = l.ops[i].outBuf
	}
}

func (l *Lane32) forwardOp(op *lane32Op, s, batch int) {
	in := op.inRef[s*batch*op.inLen : (s+1)*batch*op.inLen]
	out := op.outBuf[s*batch*op.outLen : (s+1)*batch*op.outLen]
	switch op.kind {
	case laneOpDense:
		w := l.params[s][op.wOff : op.wOff+op.out*op.in]
		b := l.params[s][op.bOff : op.bOff+op.out]
		tensor.MatMulTransB32Into(out, in, w, batch, op.in, op.out)
		for i := 0; i < batch; i++ {
			tensor.Add(out[i*op.out:(i+1)*op.out], b)
		}
	case laneOpConv:
		w := l.params[s][op.wOff : op.wOff+op.outC*op.cr]
		b := l.params[s][op.bOff : op.bOff+op.outC]
		for i := 0; i < batch; i++ {
			cols := op.cols[(s*batch+i)*op.cr*op.sp : (s*batch+i+1)*op.cr*op.sp]
			tensor.Im2Col32Into(cols, in[i*op.inLen:(i+1)*op.inLen], op.geom)
			seg := out[i*op.outLen : (i+1)*op.outLen]
			tensor.MatMul32Into(seg, w, cols, op.outC, op.cr, op.sp)
			for oc := 0; oc < op.outC; oc++ {
				tensor.AddScalar(seg[oc*op.sp:(oc+1)*op.sp], b[oc])
			}
		}
	case laneOpReLU:
		tensor.Relu(out, in)
	case laneOpPool:
		// The slot's batch·c planes are one stack of rows: h is even, so row
		// pairs never straddle two planes.
		tensor.MaxPool2x2(out, op.argmax[s*batch*op.outLen:(s+1)*batch*op.outLen], in, op.w)
	}
}

func (l *Lane32) backwardOp(op *lane32Op, s, batch int, goutBuf, ginBuf []float32, needGin bool) {
	gout := goutBuf[s*batch*op.outLen : (s+1)*batch*op.outLen]
	gin := ginBuf[s*batch*op.inLen : (s+1)*batch*op.inLen]
	in := op.inRef[s*batch*op.inLen : (s+1)*batch*op.inLen]
	switch op.kind {
	case laneOpDense:
		// dW accumulates straight into the flat gradient buffer — no scratch.
		dw := l.grads[s][op.wOff : op.wOff+op.out*op.in]
		tensor.MatMulTransA32Acc(dw, gout, in, batch, op.out, op.in)
		db := l.grads[s][op.bOff : op.bOff+op.out]
		for i := 0; i < batch; i++ {
			tensor.Add(db, gout[i*op.out:(i+1)*op.out])
		}
		if needGin {
			w := l.params[s][op.wOff : op.wOff+op.out*op.in]
			tensor.MatMul32Into(gin, gout, w, batch, op.out, op.in)
		}
	case laneOpConv:
		w := l.params[s][op.wOff : op.wOff+op.outC*op.cr]
		dwAcc := l.grads[s][op.wOff : op.wOff+op.outC*op.cr]
		db := l.grads[s][op.bOff : op.bOff+op.outC]
		dw := l.dw[:op.outC*op.cr]
		dcols := l.dcols[:op.cr*op.sp]
		for i := 0; i < batch; i++ {
			gmat := gout[i*op.outLen : (i+1)*op.outLen]
			cols := op.cols[(s*batch+i)*op.cr*op.sp : (s*batch+i+1)*op.cr*op.sp]
			tensor.MatMulTransB32Into(dw, gmat, cols, op.outC, op.sp, op.cr)
			tensor.Add(dwAcc, dw)
			tensor.AddRowSums(db, gmat, op.sp)
			if !needGin {
				continue
			}
			clear(dcols)
			tensor.MatMulTransA32Acc(dcols, w, gmat, op.outC, op.cr, op.sp)
			tensor.Col2Im32Into(gin[i*op.inLen:(i+1)*op.inLen], dcols, op.geom)
		}
	case laneOpReLU:
		tensor.ReluGrad(gin, gout, op.outBuf[s*batch*op.outLen:(s+1)*batch*op.outLen])
	case laneOpPool:
		am := op.argmax[s*batch*op.outLen : (s+1)*batch*op.outLen]
		// Stays a clear and a scatter-add: every other cell needs its zero
		// anyway, and a store of v in place of 0 + v would leave a −0 gradient
		// −0 where this loop yields +0.
		clear(gin)
		for i, v := range gout {
			gin[am[i]] += v
		}
	}
}

// lossInto is the float32-lane softmax cross-entropy: float32 logits in,
// float32 gradient out, with the exp/log/sum arithmetic in float64 like
// SoftmaxCrossEntropyInto.
//
//machlint:noalias logits,grad
//machlint:allocfree
func (l *Lane32) lossInto(logits []float32, labels []int, grad []float32, batch int) float64 {
	classes := l.classes
	if len(labels) != batch {
		panic(fmt.Sprintf("nn: Lane32 got %d labels for batch %d", len(labels), batch))
	}
	invB := 1.0 / float64(batch)
	loss := 0.0
	exps := l.expRow[:classes]
	for i := 0; i < batch; i++ {
		row := logits[i*classes : (i+1)*classes]
		grow := grad[i*classes : (i+1)*classes]
		maxv := float64(row[0])
		for _, v := range row[1:] {
			if fv := float64(v); fv > maxv {
				maxv = fv
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(float64(v) - maxv)
			exps[j] = e
			sum += e
		}
		y := labels[i]
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, classes))
		}
		p := exps[y] / sum
		loss += -math.Log(math.Max(p, 1e-300))
		for j := range grow {
			grow[j] = float32(exps[j] / sum * invB)
		}
		grow[y] -= float32(invB)
	}
	return loss * invB
}

func grow32(b []float32, n int) []float32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]float32, n)
}

func growI32(b []int32, n int) []int32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]int32, n)
}
