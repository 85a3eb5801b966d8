package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/mach-fl/mach/internal/tensor"
)

// Conv2D is a 2-D convolution over batched inputs of shape [B, InC, H, W],
// implemented via im2col lowering so that each image's convolution becomes a
// single matrix product W (outC × InC·K·K) · cols (InC·K·K × outH·outW).
type Conv2D struct {
	name string
	geom tensor.ConvGeom
	outC int
	w    *Param // [outC, InC*K*K]
	b    *Param // [outC]

	lastCols []*tensor.Tensor // cached per-image column matrices

	// Per-image headers over the last input and the input gradient
	// ([InC, InH, InW]) and over the output and the output gradient
	// ([outC, n]) batches, rebuilt only when the buffer behind them moves (see
	// windows2) — in steady state it does not. The products and the col2im
	// scatter write through them, straight into their batch window.
	imgViews, dxViews   []*tensor.Tensor
	outViews, gradViews []*tensor.Tensor

	// Reusable buffers; see ensureTensor. In steady state (fixed batch
	// size) Forward/Backward allocate nothing.
	fwdOut       *tensor.Tensor // [B, outC, outH, outW]
	colScratch   *tensor.Tensor // eval-path column matrix, [InC·K·K, n]
	dwScratch    *tensor.Tensor // [outC, InC·K·K]
	dcolsScratch *tensor.Tensor // [InC·K·K, n]
	bwdOut       *tensor.Tensor // [B, InC, InH, InW]
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D returns a convolution layer with He-initialized kernels.
func NewConv2D(name string, geom tensor.ConvGeom, outC int, rng *rand.Rand) *Conv2D {
	if err := geom.Validate(); err != nil {
		panic(fmt.Sprintf("nn: %s: %v", name, err))
	}
	fanIn := geom.InC * geom.K * geom.K
	std := math.Sqrt(2.0 / float64(fanIn))
	return &Conv2D{
		name: name,
		geom: geom,
		outC: outC,
		w:    newParam(name+".w", tensor.Randn(rng, std, outC, fanIn)),
		b:    newParam(name+".b", tensor.New(outC)),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// OutShape returns the per-image output shape [outC, outH, outW].
func (c *Conv2D) OutShape() (outC, outH, outW int) {
	return c.outC, c.geom.OutH(), c.geom.OutW()
}

// Forward implements Layer.
//
//machlint:allocfree
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.geom
	if x.Rank() != 4 || x.Dim(1) != g.InC || x.Dim(2) != g.InH || x.Dim(3) != g.InW {
		panic(fmt.Sprintf("nn: %s expects input [B, %d, %d, %d], got %v", c.name, g.InC, g.InH, g.InW, x.Shape()))
	}
	batch := x.Dim(0)
	outH, outW := g.OutH(), g.OutW()
	n := outH * outW
	c.fwdOut = ensure4(c.fwdOut, batch, c.outC, outH, outW)
	out := c.fwdOut
	colRows := g.InC * g.K * g.K
	if train && len(c.lastCols) != batch {
		c.lastCols = make([]*tensor.Tensor, batch)
	}
	c.imgViews = windows3(c.imgViews, x.Data(), g.InC, g.InH, g.InW)
	c.outViews = windows2(c.outViews, out.Data(), c.outC, n)
	bdata := c.b.Value.Data()
	for i := 0; i < batch; i++ {
		var cols *tensor.Tensor
		if train {
			// Backward needs every image's columns, so each batch slot
			// keeps its own buffer.
			c.lastCols[i] = ensure2(c.lastCols[i], colRows, n)
			cols = c.lastCols[i]
		} else {
			c.colScratch = ensure2(c.colScratch, colRows, n)
			cols = c.colScratch
		}
		tensor.Im2ColInto(cols, c.imgViews[i], g)
		tensor.MatMulInto(c.outViews[i], c.w.Value, cols) // [outC, n]
		dst := c.outViews[i].Data()
		for oc := 0; oc < c.outC; oc++ {
			tensor.AddScalar(dst[oc*n:(oc+1)*n], bdata[oc])
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor { return c.backward(grad, true) }

// backward accumulates dW and db and, when needDx, forms the input gradient;
// without it the Wᵀ·g product and col2im scatter are skipped and nil returned.
//
//machlint:allocfree
func (c *Conv2D) backward(grad *tensor.Tensor, needDx bool) *tensor.Tensor {
	if c.lastCols == nil {
		panic("nn: Conv2D.Backward called before Forward(train=true)")
	}
	g := c.geom
	batch := grad.Dim(0)
	outH, outW := g.OutH(), g.OutW()
	n := outH * outW
	var dx *tensor.Tensor
	if needDx {
		c.bwdOut = ensure4(c.bwdOut, batch, g.InC, g.InH, g.InW)
		dx = c.bwdOut
		c.dcolsScratch = ensure2(c.dcolsScratch, g.InC*g.K*g.K, n)
		c.dxViews = windows3(c.dxViews, dx.Data(), g.InC, g.InH, g.InW)
	}
	c.dwScratch = ensure2(c.dwScratch, c.outC, g.InC*g.K*g.K)
	c.gradViews = windows2(c.gradViews, grad.Data(), c.outC, n)
	bgrad := c.b.Grad.Data()
	for i := 0; i < batch; i++ {
		gmat := c.gradViews[i]
		// dW += gmat·colsᵀ
		tensor.MatMulTransBInto(c.dwScratch, gmat, c.lastCols[i])
		c.w.Grad.AddInPlace(c.dwScratch)
		// db += row sums of gmat
		tensor.AddRowSums(bgrad, gmat.Data(), n)
		if !needDx {
			continue
		}
		// dX = col2im(Wᵀ·gmat)
		tensor.MatMulTransAInto(c.dcolsScratch, c.w.Value, gmat)
		tensor.Col2ImInto(c.dxViews[i], c.dcolsScratch, g)
	}
	return dx
}

func (c *Conv2D) clone() Layer {
	return &Conv2D{
		name: c.name,
		geom: c.geom,
		outC: c.outC,
		w:    &Param{Name: c.w.Name, Value: c.w.Value.Clone(), Grad: tensor.New(c.w.Value.Shape()...)},
		b:    &Param{Name: c.b.Name, Value: c.b.Value.Clone(), Grad: tensor.New(c.b.Value.Shape()...)},
	}
}
