package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/mach-fl/mach/internal/tensor"
)

// Dense is a fully connected layer computing y = x·Wᵀ + b for a batch input
// x of shape [B, in]. W has shape [out, in] and b has shape [out].
type Dense struct {
	name string
	in   int
	out  int
	w    *Param
	b    *Param

	lastX *tensor.Tensor // cached input for Backward

	// Reusable buffers; see ensureTensor. In steady state (fixed batch
	// size) Forward/Backward allocate nothing.
	fwdOut    *tensor.Tensor // [B, out]
	dwScratch *tensor.Tensor // [out, in]
	bwdOut    *tensor.Tensor // [B, in]
}

var _ Layer = (*Dense)(nil)

// NewDense returns a dense layer with He-initialized weights, which is the
// appropriate fan-in scaling for the ReLU networks used throughout.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	std := math.Sqrt(2.0 / float64(in))
	return &Dense{
		name: name,
		in:   in,
		out:  out,
		w:    newParam(name+".w", tensor.Randn(rng, std, out, in)),
		b:    newParam(name+".b", tensor.New(out)),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != d.in {
		panic(fmt.Sprintf("nn: %s expects input [B, %d], got %v", d.name, d.in, x.Shape()))
	}
	if train {
		d.lastX = x
	}
	batch := x.Dim(0)
	d.fwdOut = ensure2(d.fwdOut, batch, d.out)
	out := d.fwdOut
	tensor.MatMulTransBInto(out, x, d.w.Value) // [B, out]
	bdata := d.b.Value.Data()
	odata := out.Data()
	for i := 0; i < batch; i++ {
		tensor.Add(odata[i*d.out:(i+1)*d.out], bdata)
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor { return d.backward(grad, true) }

// backward accumulates dW and db and, when needDx, forms the input gradient;
// without it the grad·W product is skipped and nil returned.
func (d *Dense) backward(grad *tensor.Tensor, needDx bool) *tensor.Tensor {
	if d.lastX == nil {
		panic("nn: Dense.Backward called before Forward(train=true)")
	}
	// dW = gradᵀ·x, accumulated.
	d.dwScratch = ensure2(d.dwScratch, d.out, d.in)
	tensor.MatMulTransAInto(d.dwScratch, grad, d.lastX)
	d.w.Grad.AddInPlace(d.dwScratch)
	// db = column sums of grad.
	batch := grad.Dim(0)
	gdata := grad.Data()
	bgrad := d.b.Grad.Data()
	for i := 0; i < batch; i++ {
		tensor.Add(bgrad, gdata[i*d.out:(i+1)*d.out])
	}
	if !needDx {
		return nil
	}
	// dX = grad·W.
	d.bwdOut = ensure2(d.bwdOut, batch, d.in)
	tensor.MatMulInto(d.bwdOut, grad, d.w.Value)
	return d.bwdOut
}

func (d *Dense) clone() Layer {
	return &Dense{
		name: d.name,
		in:   d.in,
		out:  d.out,
		w:    &Param{Name: d.w.Name, Value: d.w.Value.Clone(), Grad: tensor.New(d.w.Value.Shape()...)},
		b:    &Param{Name: d.b.Name, Value: d.b.Value.Clone(), Grad: tensor.New(d.b.Value.Shape()...)},
	}
}
