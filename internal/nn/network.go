package nn

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/mach-fl/mach/internal/tensor"
)

// Network is an ordered stack of layers trained with softmax cross-entropy.
// Networks are not safe for concurrent use; in the simulator every worker
// trains on its own replica and exchanges flat parameter vectors.
type Network struct {
	name   string
	layers []Layer

	params   []*Param       // cached Params() result (layer stacks are immutable)
	first    int            // index of the first layer holding parameters
	lossGrad *tensor.Tensor // reusable loss-gradient scratch for TrainStep
}

// NewNetwork assembles a network from layers.
func NewNetwork(name string, layers ...Layer) *Network {
	return &Network{name: name, layers: layers}
}

// Name returns the architecture name.
func (n *Network) Name() string { return n.name }

// Layers returns the layer stack (not a copy; do not mutate).
func (n *Network) Layers() []Layer { return n.layers }

// Forward runs the batch input through all layers.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the loss gradient through all layers in reverse,
// accumulating parameter gradients, and returns the input gradient.
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad = n.layers[i].Backward(grad)
	}
	return grad
}

// Params returns all trainable parameters in layer order. The slice is
// cached — the layer stack never changes after construction — so the
// per-step Param walks (ZeroGrad, optimizer steps, norm reductions) stop
// allocating.
func (n *Network) Params() []*Param {
	if n.params == nil {
		for i, l := range n.layers {
			if len(n.params) == 0 {
				n.first = i
			}
			n.params = append(n.params, l.Params()...)
		}
	}
	return n.params
}

// backwardParams is Backward for a training step, where nothing reads the
// gradient with respect to the network input: the first layer that holds
// parameters skips its input-gradient product (often the step's largest)
// when it knows how (Conv2D, Dense), and the parameterless layers below it
// do not run at all.
func (n *Network) backwardParams(grad *tensor.Tensor) {
	n.Params() // resolves n.first
	for i := len(n.layers) - 1; i > n.first; i-- {
		grad = n.layers[i].Backward(grad)
	}
	if pl, ok := n.layers[n.first].(interface {
		backward(grad *tensor.Tensor, needDx bool) *tensor.Tensor
	}); ok {
		pl.backward(grad, false)
		return
	}
	n.layers[n.first].Backward(grad)
}

// ZeroGrad clears all accumulated parameter gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// ParamVector flattens all parameters into a single vector in layer order.
func (n *Network) ParamVector() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, p := range n.Params() {
		out = append(out, p.Value.Data()...)
	}
	return out
}

// ParamVectorInto appends the flat parameter vector to dst[:0] and returns
// the resulting slice, reusing dst's capacity when possible. Callers that
// hold one buffer per device avoid re-allocating an upload vector every
// round; the returned slice is only valid until the next call with the same
// buffer.
func (n *Network) ParamVectorInto(dst []float64) []float64 {
	dst = dst[:0]
	for _, p := range n.Params() {
		dst = append(dst, p.Value.Data()...)
	}
	return dst
}

// SetParamVector loads a flat vector produced by ParamVector (on this or a
// structurally identical network) back into the parameters.
func (n *Network) SetParamVector(v []float64) error {
	if len(v) != n.NumParams() {
		return fmt.Errorf("nn: parameter vector length %d does not match network %q (%d params)", len(v), n.name, n.NumParams())
	}
	off := 0
	for _, p := range n.Params() {
		copy(p.Value.Data(), v[off:off+p.Value.Len()])
		off += p.Value.Len()
	}
	return nil
}

// GradVector flattens all accumulated gradients into a single vector.
func (n *Network) GradVector() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, p := range n.Params() {
		out = append(out, p.Grad.Data()...)
	}
	return out
}

// GradSquaredNorm returns ‖∇‖² over all accumulated parameter gradients.
// This is the quantity whose per-device upper bound G²_m drives the MACH
// sampling strategy (Assumption 3 in the paper).
func (n *Network) GradSquaredNorm() float64 {
	s := 0.0
	for _, p := range n.Params() {
		s += p.Grad.SquaredNorm()
	}
	return s
}

// Clone returns a deep structural copy with the same parameter values and
// zeroed gradients. The clone shares no storage with the original.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = l.clone()
	}
	return &Network{name: n.name, layers: layers}
}

// TrainStep runs one SGD minibatch: forward, softmax cross-entropy, backward,
// optimizer step. It returns the batch loss and the squared L2 norm of the
// full stochastic gradient ‖g(w,ξ)‖² measured before the update, which feeds
// the experience-updating buffers of MACH.
func (n *Network) TrainStep(x *tensor.Tensor, labels []int, opt Optimizer) (loss, gradSqNorm float64) {
	n.ZeroGrad()
	logits := n.Forward(x, true)
	n.lossGrad = ensure2(n.lossGrad, logits.Dim(0), logits.Dim(1))
	loss = SoftmaxCrossEntropyInto(logits, labels, n.lossGrad)
	n.backwardParams(n.lossGrad)
	gradSqNorm = n.GradSquaredNorm()
	opt.Step(n.Params())
	return loss, gradSqNorm
}

// Evaluate returns classification accuracy and mean loss of the network on
// inputs x with integer labels, without touching cached training state.
func (n *Network) Evaluate(x *tensor.Tensor, labels []int) (accuracy, loss float64) {
	correct, lossSum := n.EvaluateSums(x, labels)
	// Mean via multiplication by 1/B to keep the value bit-identical to the
	// SoftmaxCrossEntropyInto mean (which scales by invB).
	return float64(correct) / float64(len(labels)), lossSum * (1.0 / float64(len(labels)))
}

// EvaluateSums returns the raw correct-prediction count and summed
// cross-entropy loss for a batch, without materializing a loss gradient or
// prediction slice. Shard-based evaluation reduces these pairs exactly
// (integer count; loss sums combined in shard order).
func (n *Network) EvaluateSums(x *tensor.Tensor, labels []int) (correct int, lossSum float64) {
	logits := n.Forward(x, false)
	lossSum = CrossEntropyLossSum(logits, labels)
	batch, classes := logits.Dim(0), logits.Dim(1)
	ld := logits.Data()
	for i := 0; i < batch; i++ {
		row := ld[i*classes : (i+1)*classes]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return correct, lossSum
}

const paramMagic = uint32(0x4d414348) // "MACH"

// MarshalBinary serializes the parameter vector with a small header so
// checkpoints can be written to disk and exchanged between processes.
func (n *Network) MarshalBinary() ([]byte, error) {
	v := n.ParamVector()
	buf := make([]byte, 8+8*len(v))
	binary.LittleEndian.PutUint32(buf[0:], paramMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(v)))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8+8*i:], math.Float64bits(x))
	}
	return buf, nil
}

// UnmarshalBinary restores parameters serialized by MarshalBinary into a
// structurally identical network.
func (n *Network) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("nn: checkpoint too short (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != paramMagic {
		return fmt.Errorf("nn: bad checkpoint magic")
	}
	count := int(binary.LittleEndian.Uint32(data[4:]))
	if len(data) != 8+8*count {
		return fmt.Errorf("nn: checkpoint declares %d params but holds %d bytes", count, len(data))
	}
	v := make([]float64, count)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8+8*i:]))
	}
	return n.SetParamVector(v)
}
