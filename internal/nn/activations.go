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
	oi := 0
	for bc := 0; bc < b*c; bc++ {
		plane := bc * h * w
		for oy := 0; oy < oh; oy++ {
			rowTop := plane + 2*oy*w
			for ox := 0; ox < ow; ox++ {
				i0 := rowTop + 2*ox
				best, bestIdx := xd[i0], i0
				if v := xd[i0+1]; v > best {
					best, bestIdx = v, i0+1
				}
				if v := xd[i0+w]; v > best {
					best, bestIdx = v, i0+w
				}
				if v := xd[i0+w+1]; v > best {
					best, bestIdx = v, i0+w+1
				}
				od[oi] = best
				if train {
					p.argmax[oi] = bestIdx
				}
				oi++
			}
		}
	}
	return out
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
