// Package nn implements a small from-scratch neural-network library on top of
// internal/tensor. It provides exactly the pieces the paper's evaluation
// needs: dense and convolutional layers, ReLU, 2×2 max-pooling, softmax
// cross-entropy, plain SGD, and the two CNN architectures used in the paper
// (2 conv + 2 fc for MNIST/FMNIST, 3 conv + 2 fc for CIFAR-10).
//
// All layers follow a simple contract: Forward caches whatever Backward
// needs, and Backward must be called with the gradient of the loss with
// respect to Forward's most recent output. Networks therefore are not safe
// for concurrent use; in the HFL simulator every concurrent local update
// borrows its own Network replica.
package nn

import (
	"github.com/mach-fl/mach/internal/tensor"
)

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

func newParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// Layer is a differentiable network stage.
type Layer interface {
	// Name identifies the layer for debugging and serialization.
	Name() string
	// Forward computes the layer output for a batch input. When train is
	// true the layer caches intermediates for Backward.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the last Forward output,
	// accumulates parameter gradients, and returns the gradient w.r.t. the
	// layer input.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// clone returns a structural copy with freshly allocated parameters
	// holding the same values and no cached activations.
	clone() Layer
}
