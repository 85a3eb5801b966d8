package nn

import (
	"math/rand"
	"testing"

	"github.com/mach-fl/mach/internal/tensor"
)

// TestTrainStepSteadyStateZeroAllocsMLP pins the layer-scratch contract on
// the dense path: after the first step installs every reusable buffer, a
// training step with a fixed batch size allocates nothing.
func TestTrainStepSteadyStateZeroAllocsMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewMLP("alloc", 16, []int{32, 16}, 10, rng)
	opt := NewSGD(0.05)
	x := tensor.Randn(rng, 1, 8, 16)
	y := make([]int, 8)
	for i := range y {
		y[i] = rng.Intn(10)
	}
	net.TrainStep(x, y, opt) // warm-up installs the buffers
	allocs := testing.AllocsPerRun(20, func() {
		net.TrainStep(x, y, opt)
	})
	if allocs != 0 {
		t.Fatalf("steady-state TrainStep allocates %v objects per call", allocs)
	}
}

// TestTrainStepSteadyStateZeroAllocsCNN is the same contract on the
// convolutional path, where the per-image input and gradient windows are the
// headers that used to be rebuilt every step.
func TestTrainStepSteadyStateZeroAllocsCNN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, err := NewCNN(MNISTCNNConfig(16, 16), rng)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewSGD(0.05)
	x := tensor.Randn(rng, 1, 8, 1, 16, 16)
	y := make([]int, 8)
	for i := range y {
		y[i] = rng.Intn(10)
	}
	net.TrainStep(x, y, opt) // warm-up installs the buffers and window headers
	allocs := testing.AllocsPerRun(20, func() {
		net.TrainStep(x, y, opt)
	})
	if allocs != 0 {
		t.Fatalf("steady-state CNN TrainStep allocates %v objects per call", allocs)
	}
}

// TestForwardReusedBufferStillCorrect guards the subtle half of buffer
// reuse: a second forward pass through the same network must produce the
// same values it would from fresh buffers.
func TestForwardReusedBufferStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewMLP("reuse", 16, []int{16}, 10, rng)
	x := tensor.Randn(rng, 1, 4, 16)
	first := net.Forward(x, false).Clone()
	again := net.Forward(x, false)
	for i, v := range first.Data() {
		if again.Data()[i] != v {
			t.Fatalf("reused forward differs at %d: %v vs %v", i, again.Data()[i], v)
		}
	}
}
