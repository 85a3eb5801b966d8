package tensor

import (
	"fmt"
	"math/rand"
)

// Allocating spellings of the Into kernels, for tests that want a value: the
// package exports only the buffer-reusing forms.

func matMul(a, b *Tensor) *Tensor {
	out := New(a.shape[0], b.shape[1])
	MatMulInto(out, a, b)
	return out
}

func matMulTransA(a, b *Tensor) *Tensor {
	_, m, n := transAShape(a, b)
	out := New(m, n)
	MatMulTransAInto(out, a, b)
	return out
}

func matMulTransB(a, b *Tensor) *Tensor {
	m, _, n := transBShape(a, b)
	out := New(m, n)
	MatMulTransBInto(out, a, b)
	return out
}

func im2Col(x *Tensor, g ConvGeom) *Tensor {
	out := New(g.InC*g.K*g.K, g.OutH()*g.OutW())
	Im2ColInto(out, x, g)
	return out
}

func col2Im(cols *Tensor, g ConvGeom) *Tensor {
	img := New(g.InC, g.InH, g.InW)
	Col2ImInto(img, cols, g)
	return img
}

func transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: transpose2D requires a 2-D tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// uniform returns a tensor with elements drawn i.i.d. from U[lo, hi).
func uniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}
