package nn

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/mach-fl/mach/internal/tensor"
)

// ReLU applies max(0, x) element-wise. Forward and Backward are branch-free:
// the sign of a pre-activation is a coin flip the branch predictor loses, so
// both select through an all-ones/zero word ANDed onto the float's bits.
// Backward derives that word from the retained forward output (positive
// exactly where the input was), so no separate mask is stored.
type ReLU struct {
	name string

	fwdOut *tensor.Tensor // reusable output buffer (see ensureTensor); Backward reads it
	bwdOut *tensor.Tensor
}

var _ Layer = (*ReLU)(nil)

// posInfBits is the bit pattern of +Inf, the largest float64 that is > 0.
const posInfBits = 0x7FF0000000000000

// NewReLU returns a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
//
//machlint:allocfree
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.fwdOut = ensureTensor(r.fwdOut, x.Shape()...)
	in := x.Data()
	out := r.fwdOut.Data()[:len(in)]
	for i, v := range in {
		// v > 0 ⇔ its bits lie in [1, posInfBits] ⇔ (bits−1) − posInfBits
		// borrows; −x, ±0 and NaNs of either sign do not and become +0.
		b := math.Float64bits(v)
		_, pos := bits.Sub64(b-1, posInfBits, 0)
		out[i] = math.Float64frombits(b & -pos)
	}
	return r.fwdOut
}

// Backward implements Layer.
//
//machlint:allocfree
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.fwdOut == nil || r.fwdOut.Len() != grad.Len() {
		panic("nn: ReLU.Backward called before Forward")
	}
	r.bwdOut = ensureTensor(r.bwdOut, grad.Shape()...)
	gd := grad.Data()
	fwd := r.fwdOut.Data()[:len(gd)]
	out := r.bwdOut.Data()[:len(gd)]
	for i, g := range gd {
		// A forward output is +0 or positive, so negating its bits sets the
		// sign exactly where the input was > 0; masked gradients become +0.
		keep := uint64(-int64(math.Float64bits(fwd[i])) >> 63)
		out[i] = math.Float64frombits(math.Float64bits(g) & keep)
	}
	return r.bwdOut
}

func (r *ReLU) clone() Layer { return &ReLU{name: r.name} }

// Flatten reshapes [B, C, H, W] (or any rank ≥ 2) into [B, rest].
type Flatten struct {
	name      string
	lastShape []int

	fwdView *tensor.Tensor // cached reshape headers; see reshapeCached
	bwdView *tensor.Tensor
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: %s expects rank ≥ 2, got %v", f.name, x.Shape()))
	}
	if train {
		f.lastShape = append(f.lastShape[:0], x.Shape()...)
	}
	batch := x.Dim(0)
	cols := x.Len() / batch
	if x.Rank() == 2 && x.Dim(1) == cols {
		return x // already flat; layers never mutate their inputs
	}
	f.fwdView = reshape2Cached(f.fwdView, x, batch, cols)
	return f.fwdView
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(f.lastShape) == 0 {
		panic("nn: Flatten.Backward called before Forward(train=true)")
	}
	if shapeEqual(grad.Shape(), f.lastShape) {
		return grad
	}
	f.bwdView = reshapeCached(f.bwdView, grad, f.lastShape)
	return f.bwdView
}

func (f *Flatten) clone() Layer { return &Flatten{name: f.name} }

// MaxPool2 is a 2×2 max-pooling layer with stride 2 over [B, C, H, W]
// inputs. H and W must be even.
type MaxPool2 struct {
	name    string
	argmax  []int // flat input index of each output element
	inShape []int

	fwdOut *tensor.Tensor // reusable output buffer; see ensureTensor
	bwdOut *tensor.Tensor
}

var _ Layer = (*MaxPool2)(nil)

// NewMaxPool2 returns a 2×2/stride-2 max-pooling layer.
func NewMaxPool2(name string) *MaxPool2 { return &MaxPool2{name: name} }

// Name implements Layer.
func (p *MaxPool2) Name() string { return p.name }

// Params implements Layer.
func (p *MaxPool2) Params() []*Param { return nil }

// Forward implements Layer.
func (p *MaxPool2) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s expects [B, C, H, W], got %v", p.name, x.Shape()))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("nn: %s requires even H and W, got %dx%d", p.name, h, w))
	}
	oh, ow := h/2, w/2
	p.fwdOut = ensure4(p.fwdOut, b, c, oh, ow)
	out := p.fwdOut
	if train {
		if cap(p.argmax) < out.Len() {
			p.argmax = make([]int, out.Len())
		}
		p.argmax = p.argmax[:out.Len()]
		p.inShape = append(p.inShape[:0], x.Shape()...)
	}
	xd, od := x.Data(), out.Data()
	// Output row r pools input rows 2r and 2r+1. arg stays nil outside
	// training: the row kernel then records no indices.
	var arg []int
	for r := 0; r < b*c*oh; r++ {
		if train {
			arg = p.argmax[r*ow:][:ow]
		}
		maxPoolRow(od[r*ow:][:ow], arg, xd[2*r*w:][:w], xd[(2*r+1)*w:][:w], 2*r*w)
	}
	return out
}

// maxPoolRow pools the input rows top and bot (top starting at flat index
// base) into out and, unless arg is nil, records the flat index of each
// maximum in arg: the first one under strict > in (top-left, top-right,
// bottom-left, bottom-right) order, so a NaN never wins a comparison. On ReLU
// outputs those comparisons are coin flips a branch predictor cannot learn, so
// the running maximum is carried as bits and every candidate is computed
// before the comparisons: each step then compiles to conditional moves.
func maxPoolRow(out []float64, arg []int, top, bot []float64, base int) {
	w := len(top)
	bot = bot[:w]
	for ox := range out {
		j := 2 * ox
		if j+1 >= w { // never taken (len(out) is w/2); it proves the four loads in bounds
			break
		}
		i0 := base + j
		i1, i2, i3 := i0+1, i0+w, i0+w+1
		t1, u0, u1 := top[j+1], bot[j], bot[j+1]
		b1, b2, b3 := math.Float64bits(t1), math.Float64bits(u0), math.Float64bits(u1)
		best, bestIdx := math.Float64bits(top[j]), i0
		if t1 > math.Float64frombits(best) {
			best, bestIdx = b1, i1
		}
		if u0 > math.Float64frombits(best) {
			best, bestIdx = b2, i2
		}
		if u1 > math.Float64frombits(best) {
			best, bestIdx = b3, i3
		}
		out[ox] = math.Float64frombits(best)
		if arg != nil {
			arg[ox] = bestIdx
		}
	}
}

// Backward implements Layer.
func (p *MaxPool2) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(p.inShape) == 0 || len(p.argmax) != grad.Len() {
		panic("nn: MaxPool2.Backward called before Forward(train=true)")
	}
	p.bwdOut = ensureTensor(p.bwdOut, p.inShape...)
	dx := p.bwdOut
	dx.Zero() // scatter-add below needs a clean buffer
	dd := dx.Data()
	for i, v := range grad.Data() {
		dd[p.argmax[i]] += v
	}
	return dx
}

func (p *MaxPool2) clone() Layer { return &MaxPool2{name: p.name} }
