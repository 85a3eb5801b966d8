package nn

import (
	"fmt"

	"github.com/mach-fl/mach/internal/tensor"
)

// Lockstep fuses the local updates of several structurally identical
// float64 networks into one layer-lockstep pass: layer 0 runs for every
// network, then layer 1, and so on, so the devices of one edge march through
// the architecture together with each layer's code and weights hot in cache
// (the float64 half of cross-device batch fusion, DESIGN.md §10).
//
// Per-device weights diverge during local epochs, so the devices' products
// cannot collapse into a single GEMM without changing the paper's per-device
// update semantics; lockstep interleaving is the fusion that preserves them
// exactly. Every network executes precisely the operation sequence of
// Network.TrainStep on its own layers, scratch and optimizer state, so the
// fused result is bit-identical to running the unfused steps one device at a
// time — the fused-vs-unfused identity the determinism contract promises for
// the f64 lane. With one network, Step is Network.TrainStep verbatim.
//
// A Lockstep value only holds the activation cursor slice; it may be reused
// across rounds and edges. It is not safe for concurrent use.
type Lockstep struct {
	acts []*tensor.Tensor
}

// Step runs one fused minibatch: for each i, nets[i] trains on xs[i] with
// labels[i] and optimizer opts[i], writing the batch loss to losses[i] and
// the pre-update squared gradient norm to sqNorms[i].
func (ls *Lockstep) Step(nets []*Network, xs []*tensor.Tensor, labels [][]int, opts []Optimizer, losses, sqNorms []float64) {
	n := len(nets)
	if n == 0 {
		return
	}
	if len(xs) != n || len(labels) != n || len(opts) != n || len(losses) < n || len(sqNorms) < n {
		panic(fmt.Sprintf("nn: Lockstep.Step got %d nets but %d inputs, %d label sets, %d optimizers", n, len(xs), len(labels), len(opts)))
	}
	depth := len(nets[0].layers)
	for d := 1; d < n; d++ {
		if len(nets[d].layers) != depth {
			panic(fmt.Sprintf("nn: Lockstep networks differ in depth: %q has %d layers, %q has %d", nets[0].name, depth, nets[d].name, len(nets[d].layers)))
		}
	}
	if cap(ls.acts) < n {
		ls.acts = make([]*tensor.Tensor, n)
	}
	acts := ls.acts[:n]
	for d := 0; d < n; d++ {
		nets[d].ZeroGrad()
		acts[d] = xs[d]
	}
	for li := 0; li < depth; li++ {
		for d := 0; d < n; d++ {
			acts[d] = nets[d].layers[li].Forward(acts[d], true)
		}
	}
	for d := 0; d < n; d++ {
		net := nets[d]
		logits := acts[d]
		net.lossGrad = ensure2(net.lossGrad, logits.Dim(0), logits.Dim(1))
		losses[d] = SoftmaxCrossEntropyInto(logits, labels[d], net.lossGrad)
		acts[d] = net.lossGrad
	}
	first := nets[0].first // resolved by ZeroGrad above; see Network.backwardParams
	for li := depth - 1; li > first; li-- {
		for d := 0; d < n; d++ {
			acts[d] = nets[d].layers[li].Backward(acts[d])
		}
	}
	for d := 0; d < n; d++ {
		backwardParamsOnly(nets[d].layers[first], acts[d])
	}
	for d := 0; d < n; d++ {
		sqNorms[d] = nets[d].GradSquaredNorm()
		opts[d].Step(nets[d].Params())
	}
}
