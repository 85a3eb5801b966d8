package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution. It is shared between
// the im2col/col2im kernels here and the Conv2D layer in internal/nn.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	K             int // square kernel size
	Stride        int
	Pad           int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.K)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.K)/g.Stride + 1 }

// Validate reports whether the geometry is internally consistent.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	case g.K <= 0 || g.Stride <= 0 || g.Pad < 0:
		return fmt.Errorf("tensor: conv geometry has invalid kernel/stride/pad %+v", g)
	case g.InH+2*g.Pad < g.K || g.InW+2*g.Pad < g.K:
		return fmt.Errorf("tensor: kernel %d exceeds padded input %dx%d", g.K, g.InH+2*g.Pad, g.InW+2*g.Pad)
	}
	return nil
}

// Im2ColInto lowers a single image x of shape [InC, InH, InW] into dst, a
// matrix of shape [InC*K*K, OutH*OutW], so the convolution becomes a matrix
// product W (outC × InC*K*K) · cols. dst is fully overwritten (out-of-bounds
// padding positions with zeros), so a dirty scratch tensor may be passed.
//
//machlint:noalias dst,x
func Im2ColInto(dst, x *Tensor, g ConvGeom) {
	if x.Rank() != 3 || x.shape[0] != g.InC || x.shape[1] != g.InH || x.shape[2] != g.InW {
		panic(fmt.Sprintf("tensor: Im2Col input %v does not match geometry %+v", x.shape, g))
	}
	outH, outW := g.OutH(), g.OutW()
	rows := g.InC * g.K * g.K
	cols := outH * outW
	if dst.Rank() != 2 || dst.shape[0] != rows || dst.shape[1] != cols {
		panic(fmt.Sprintf("tensor: Im2ColInto dst %v does not match geometry %+v", dst.shape, g))
	}
	im2ColInto(dst.data, x.data, g)
}

// im2ColInto is the lowering behind Im2ColInto and Im2Col32Into: out is the
// [InC·K·K, OutH·OutW] matrix and x the [InC, InH, InW] image, both flat and
// exactly sized.
//
//machlint:noalias out,x
func im2ColInto[T float32 | float64](out, x []T, g ConvGeom) {
	if g.Stride == 1 {
		im2ColStride1(out, x, g)
		return
	}
	im2ColGeneral(out, x, g)
}

// im2ColGeneral is the any-stride lowering: zero everything, then one bounds
// test per element.
func im2ColGeneral[T float32 | float64](out, x []T, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	clear(out)
	for c := 0; c < g.InC; c++ {
		chOff := c * g.InH * g.InW
		for ky := 0; ky < g.K; ky++ {
			for kx := 0; kx < g.K; kx++ {
				row := (c*g.K+ky)*g.K + kx
				dst := out[row*cols : (row+1)*cols]
				for oy := 0; oy < outH; oy++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					srcRow := chOff + iy*g.InW
					for ox := 0; ox < outW; ox++ {
						ix := ox*g.Stride + kx - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						dst[oy*outW+ox] = x[srcRow+ix]
					}
				}
			}
		}
	}
}

// stride1Range returns the output positions [lo, hi) along one axis whose
// input position o+kPos-pad falls inside [0, in) at stride 1; the positions
// outside it read padding. The range is clamped into [0, out] and may be
// empty (a kernel wider than the input).
func stride1Range(kPos, pad, in, out int) (lo, hi int) {
	lo = min(max(pad-kPos, 0), out)
	hi = max(min(in+pad-kPos, out), lo)
	return lo, hi
}

// im2ColStride1 lowers a stride-1 geometry run by run: at stride 1 the
// in-bounds outputs of one (ky, kx, oy) are one contiguous run of an input row,
// and the padding cells between two runs (the right edge of one output row and
// the left edge of the next) are contiguous too. So each matrix row is a head
// of padding, copies with short gaps of padding between them, and a tail of
// padding; when input and output rows have the same width the copies abut in
// the source as well and become one. Every cell of out is written.
//
//machlint:allocfree
func im2ColStride1[T float32 | float64](out, x []T, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	for c := 0; c < g.InC; c++ {
		chOff := c * g.InH * g.InW
		for ky := 0; ky < g.K; ky++ {
			yLo, yHi := stride1Range(ky, g.Pad, g.InH, outH)
			for kx := 0; kx < g.K; kx++ {
				xLo, xHi := stride1Range(kx, g.Pad, g.InW, outW)
				row := (c*g.K+ky)*g.K + kx
				dst := out[row*cols : (row+1)*cols]
				if xLo == xHi || yLo == yHi {
					clear(dst)
					continue
				}
				// Output cell oy·outW+ox reads x[src + oy·InW + ox].
				src := chOff + (ky-g.Pad)*g.InW + kx - g.Pad
				start, end := yLo*outW+xLo, (yHi-1)*outW+xHi
				clear(dst[:start])
				if outW == g.InW {
					copy(dst[start:end], x[src+start:])
				} else {
					for oy := yLo; oy < yHi; oy++ {
						copy(dst[oy*outW+xLo:oy*outW+xHi], x[src+oy*g.InW+xLo:])
					}
				}
				// A gap is at most 2·Pad cells, fewer than a clear call costs;
				// after the single copy it holds wrapped-around input.
				if gap := outW - (xHi - xLo); gap > 0 {
					for at := yLo*outW + xHi; at < end; at += outW {
						for i := at; i < at+gap; i++ {
							dst[i] = 0
						}
					}
				}
				clear(dst[end:])
			}
		}
	}
}

// Col2ImInto is the adjoint of Im2ColInto: it scatters a [InC*K*K, OutH*OutW]
// matrix of column gradients back into img, an image gradient of shape
// [InC, InH, InW], accumulating where patches overlap. img is zeroed before
// accumulation, so a dirty scratch tensor may be passed.
//
//machlint:noalias img,cols
func Col2ImInto(img, cols *Tensor, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	rows := g.InC * g.K * g.K
	n := outH * outW
	if cols.Rank() != 2 || cols.shape[0] != rows || cols.shape[1] != n {
		panic(fmt.Sprintf("tensor: Col2Im input %v does not match geometry %+v", cols.shape, g))
	}
	if img.Rank() != 3 || img.shape[0] != g.InC || img.shape[1] != g.InH || img.shape[2] != g.InW {
		panic(fmt.Sprintf("tensor: Col2ImInto dst %v does not match geometry %+v", img.shape, g))
	}
	col2ImInto(img.data, cols.data, g)
}

// col2ImInto is the scatter behind Col2ImInto and Col2Im32Into, over the flat,
// exactly sized operands of im2ColInto; it zeroes img first.
//
//machlint:noalias img,cols
func col2ImInto[T float32 | float64](img, cols []T, g ConvGeom) {
	clear(img)
	if g.Stride == 1 {
		col2ImStride1(img, cols, g)
		return
	}
	col2ImGeneral(img, cols, g)
}

// col2ImGeneral is the any-stride scatter onto a zeroed img, one bounds test
// per element.
func col2ImGeneral[T float32 | float64](img, cols []T, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	n := outH * outW
	for c := 0; c < g.InC; c++ {
		chOff := c * g.InH * g.InW
		for ky := 0; ky < g.K; ky++ {
			for kx := 0; kx < g.K; kx++ {
				row := (c*g.K+ky)*g.K + kx
				src := cols[row*n : (row+1)*n]
				for oy := 0; oy < outH; oy++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					dstRow := chOff + iy*g.InW
					for ox := 0; ox < outW; ox++ {
						ix := ox*g.Stride + kx - g.Pad
						if ix < 0 || ix >= g.InW {
							continue
						}
						img[dstRow+ix] += src[oy*outW+ox]
					}
				}
			}
		}
	}
}

// col2ImStride1 scatters a stride-1 geometry onto a zeroed img as one block
// add (addRows) per (c, ky, kx): the in-bounds runs of stride1Range, one per
// oy, are rows of one strided block on both sides. Within a block every cell
// is written once, and the outer (c, ky, kx) order is col2ImGeneral's, so
// every pixel receives its addends in the same order.
//
//machlint:allocfree
func col2ImStride1[T float32 | float64](img, cols []T, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	n := outH * outW
	for c := 0; c < g.InC; c++ {
		chOff := c * g.InH * g.InW
		for ky := 0; ky < g.K; ky++ {
			yLo, yHi := stride1Range(ky, g.Pad, g.InH, outH)
			for kx := 0; kx < g.K; kx++ {
				xLo, xHi := stride1Range(kx, g.Pad, g.InW, outW)
				if xLo == xHi || yLo == yHi {
					continue
				}
				row := (c*g.K+ky)*g.K + kx
				addRows(img[chOff+(yLo+ky-g.Pad)*g.InW+xLo+kx-g.Pad:], cols[row*n+yLo*outW+xLo:],
					yHi-yLo, xHi-xLo, g.InW, outW)
			}
		}
	}
}
