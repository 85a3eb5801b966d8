// Package tensor implements a small dense float64 tensor library used as the
// numerical substrate of the HFL simulator. Tensors are stored contiguously in
// row-major order. The package is deliberately minimal: it provides exactly
// the operations required by the neural-network layers in internal/nn
// (element-wise arithmetic, 2-D matrix multiplication, im2col/col2im for
// convolutions, and reductions).
//
// Shape mismatches are programmer errors and panic with a descriptive
// message, mirroring the convention of mainstream numeric libraries.
package tensor

import (
	"fmt"
	"math/rand"
	"strings"
)

// Tensor is a dense, row-major float64 tensor. The zero value is not usable;
// construct tensors with New, FromSlice, Windows or Randn.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. All dimensions must
// be positive.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Windows is FromSlice for a batch: it cuts data into consecutive tensors of
// the given shape that share its storage and, between them, one shape slice
// and one allocation of headers, so per-image views of a batch cost what one
// view does. len(data) must be a positive multiple of the shape's element
// count.
func Windows(data []float64, shape ...int) []*Tensor {
	n := checkShape(shape)
	if len(data) < n || len(data)%n != 0 {
		panic(fmt.Sprintf("tensor: Windows data length %d is not a positive multiple of shape %v (%d elements)", len(data), shape, n))
	}
	first := FromSlice(data[:n], shape...)
	headers := make([]Tensor, len(data)/n)
	views := make([]*Tensor, len(headers))
	for i := range headers {
		headers[i] = Tensor{shape: first.shape, data: data[i*n : (i+1)*n]}
		views[i] = &headers[i]
	}
	return views
}

// Randn returns a tensor with elements drawn i.i.d. from N(0, std²).
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * std
	}
	return t
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float64, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of t with a new shape covering the same elements.
// The underlying data is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) mustSameShape(u *Tensor, op string) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, u.shape))
	}
}

// AddInPlace adds u to t element-wise, returning t.
func (t *Tensor) AddInPlace(u *Tensor) *Tensor {
	t.mustSameShape(u, "AddInPlace")
	Add(t.data, u.data)
	return t
}

// AxpyInPlace computes t += a*u element-wise, returning t.
func (t *Tensor) AxpyInPlace(a float64, u *Tensor) *Tensor {
	t.mustSameShape(u, "AxpyInPlace")
	Axpy(t.data, a, u.data)
	return t
}

// Zero sets every element of t to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// SquaredNorm returns the squared Euclidean norm of the flattened tensor.
func (t *Tensor) SquaredNorm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return s
}

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	}
	return b.String()
}
