package nn

import (
	"fmt"
	"math"

	"github.com/mach-fl/mach/internal/tensor"
)

// SoftmaxCrossEntropyInto computes the mean cross-entropy loss of logits
// [B, classes] against integer labels and writes the gradient of the loss
// w.r.t. the logits, (softmax(logits) − onehot(labels)) / B, into a
// caller-owned [B, classes] tensor (fully overwritten), so the training hot
// path can reuse one gradient buffer across steps. The softmax is computed
// with the usual max-subtraction for numerical stability.
//
//machlint:noalias logits,grad
//
//machlint:allocfree
func SoftmaxCrossEntropyInto(logits *tensor.Tensor, labels []int, grad *tensor.Tensor) (loss float64) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropyInto expects [B, classes], got %v", logits.Shape()))
	}
	batch, classes := logits.Dim(0), logits.Dim(1)
	if len(labels) != batch {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropyInto got %d labels for batch %d", len(labels), batch))
	}
	if grad.Rank() != 2 || grad.Dim(0) != batch || grad.Dim(1) != classes {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropyInto grad shape %v, want [%d, %d]", grad.Shape(), batch, classes))
	}
	ld, gd := logits.Data(), grad.Data()
	invB := 1.0 / float64(batch)
	for i := 0; i < batch; i++ {
		row := ld[i*classes : (i+1)*classes]
		grow := gd[i*classes : (i+1)*classes]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxv)
			grow[j] = e
			sum += e
		}
		y := labels[i]
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, classes))
		}
		p := grow[y] / sum
		loss += -math.Log(math.Max(p, 1e-300))
		for j := range grow {
			grow[j] = grow[j] / sum * invB
		}
		grow[y] -= invB
	}
	return loss * invB
}

// CrossEntropyLossSum returns the *sum* of per-sample cross-entropy losses
// of logits [B, classes] against labels, without materializing a gradient.
// Per-sample terms are accumulated in row order with the same arithmetic as
// SoftmaxCrossEntropyInto, so sum/batch equals that function's mean loss for
// the same rows. Evaluation shards use it so a shard-ordered reduction over
// (correct, lossSum) pairs is exact and allocation-free.
func CrossEntropyLossSum(logits *tensor.Tensor, labels []int) float64 {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: CrossEntropyLossSum expects [B, classes], got %v", logits.Shape()))
	}
	batch, classes := logits.Dim(0), logits.Dim(1)
	if len(labels) != batch {
		panic(fmt.Sprintf("nn: CrossEntropyLossSum got %d labels for batch %d", len(labels), batch))
	}
	ld := logits.Data()
	sum := 0.0
	for i := 0; i < batch; i++ {
		row := ld[i*classes : (i+1)*classes]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		expSum := 0.0
		for _, v := range row {
			expSum += math.Exp(v - maxv)
		}
		y := labels[i]
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, classes))
		}
		p := math.Exp(row[y]-maxv) / expSum
		sum += -math.Log(math.Max(p, 1e-300))
	}
	return sum
}
