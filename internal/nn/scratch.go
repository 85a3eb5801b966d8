package nn

import "github.com/mach-fl/mach/internal/tensor"

// ensureTensor returns t when it already has the wanted shape, else a fresh
// tensor. Layers use it to keep one reusable output/scratch buffer per call
// site: in steady state (fixed batch size) every training step reuses the
// same storage and the hot path stops allocating. Returned buffers are
// owned by the layer and are overwritten by the next call with the same
// shape — consistent with the package contract that networks are not safe
// for concurrent use and outputs are consumed before the next call.
func ensureTensor(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	if t != nil && shapeEqual(t.Shape(), shape) {
		return t
	}
	return tensor.New(shape...)
}

// ensure2 and ensure4 are arity-specific forms of ensureTensor.
// They avoid materializing a variadic shape slice on the reuse path, which
// otherwise costs one heap allocation per call in the training loop.
func ensure2(t *tensor.Tensor, d0, d1 int) *tensor.Tensor {
	if t != nil && t.Rank() == 2 && t.Dim(0) == d0 && t.Dim(1) == d1 {
		return t
	}
	return tensor.New(d0, d1)
}

func ensure4(t *tensor.Tensor, d0, d1, d2, d3 int) *tensor.Tensor {
	if t != nil && t.Rank() == 4 && t.Dim(0) == d0 && t.Dim(1) == d1 && t.Dim(2) == d2 && t.Dim(3) == d3 {
		return t
	}
	return tensor.New(d0, d1, d2, d3)
}

// reshape2Cached is reshapeCached for the common rank-2 target, avoiding a
// shape-slice literal on the reuse path.
func reshape2Cached(view, x *tensor.Tensor, d0, d1 int) *tensor.Tensor {
	if wraps(view, x.Data()) && view.Rank() == 2 && view.Dim(0) == d0 && view.Dim(1) == d1 {
		return view
	}
	return x.Reshape(d0, d1)
}

// reshapeCached returns a view of x's storage with the given shape, reusing
// a previously built view header when it still aliases the same storage.
// Because upstream layers reuse their output buffers, the cached header
// stays valid across steady-state steps and reshaping stops allocating.
func reshapeCached(view, x *tensor.Tensor, shape []int) *tensor.Tensor {
	if wraps(view, x.Data()) && shapeEqual(view.Shape(), shape) {
		return view
	}
	return x.Reshape(shape...)
}

// windows2 and windows3 return views when it already cuts exactly data into
// headers of the given shape, else a fresh cut (arity-specific like ensure2: a
// variadic shape would be materialized on the reuse path too). Conv2D keeps
// such per-image headers over every batch buffer it reads or writes instead
// of building them every step.
func windows2(views []*tensor.Tensor, data []float64, d0, d1 int) []*tensor.Tensor {
	if len(views)*d0*d1 == len(data) && wraps(views[0], data[:d0*d1]) {
		return views
	}
	return tensor.Windows(data, d0, d1)
}

func windows3(views []*tensor.Tensor, data []float64, d0, d1, d2 int) []*tensor.Tensor {
	if len(views)*d0*d1*d2 == len(data) && wraps(views[0], data[:d0*d1*d2]) {
		return views
	}
	return tensor.Windows(data, d0, d1, d2)
}

// wraps reports whether view (nil allowed) is a header over exactly the
// storage window data.
func wraps(view *tensor.Tensor, data []float64) bool {
	if view == nil {
		return false
	}
	vd := view.Data()
	return len(vd) == len(data) && len(vd) > 0 && &vd[0] == &data[0]
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
