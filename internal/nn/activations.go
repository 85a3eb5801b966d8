package nn

import (
	"fmt"

	"github.com/mach-fl/mach/internal/tensor"
)

// ReLU applies max(0, x) element-wise through tensor.Relu and tensor.ReluGrad.
// Backward reads its mask off the retained forward output (positive exactly
// where the input was), so no separate mask is stored.
type ReLU struct {
	name string

	fwdOut *tensor.Tensor // reusable output buffer (see ensureTensor); Backward reads it
	bwdOut *tensor.Tensor
}

var _ Layer = (*ReLU)(nil)

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
	tensor.Relu(r.fwdOut.Data(), x.Data())
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
	tensor.ReluGrad(r.bwdOut.Data(), grad.Data(), r.fwdOut.Data())
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
	argmax  []int32 // flat input index of each output element
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
	var arg []int32 // stays nil outside training: no indices are recorded
	if train {
		if cap(p.argmax) < out.Len() {
			p.argmax = make([]int32, out.Len())
		}
		p.argmax = p.argmax[:out.Len()]
		p.inShape = append(p.inShape[:0], x.Shape()...)
		arg = p.argmax
	}
	// The batch's b·c planes are one stack of rows: h is even, so a row pair
	// never straddles two planes.
	tensor.MaxPool2x2(out.Data(), arg, x.Data(), w)
	return out
}

// Backward implements Layer.
func (p *MaxPool2) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(p.inShape) == 0 || len(p.argmax) != grad.Len() {
		panic("nn: MaxPool2.Backward called before Forward(train=true)")
	}
	p.bwdOut = ensureTensor(p.bwdOut, p.inShape...)
	dx := p.bwdOut
	// Stays a clear and a scatter-add: every other cell needs its zero anyway,
	// and a store of v in place of 0 + v would leave a −0 gradient −0 where
	// this loop yields +0.
	dx.Zero()
	dd := dx.Data()
	for i, v := range grad.Data() {
		dd[p.argmax[i]] += v
	}
	return dx
}

func (p *MaxPool2) clone() Layer { return &MaxPool2{name: p.name} }
