package hfl

import (
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/parallel"
	"github.com/mach-fl/mach/internal/tensor"
)

// This file holds the execution phase (DESIGN.md §5, §10). There is one
// path: trainGroup runs the local updates of a run of one edge's planned
// devices on a borrowed trainer. Config.Lane picks the arithmetic inside it
// and Config.FuseBatch only how the shard cuts an edge's plan into pool
// tasks (one group per edge, or one per device); neither can reach a value:
//
//   - Every device's minibatches come from its own dev.rng in local-epoch
//     order, whatever group or trainer serves it.
//   - A trainer carries nothing from one device to the next (see trainer).
//   - Aggregation boundaries stay float64: the f32 lane trains float32
//     compute copies of float64 master weights and uploads the masters.

// trainer is everything a local update mutates: one float64 model replica
// with its optimizer, one minibatch buffer set and — built on first f32 use —
// a float32 lane whose slot count grows to the largest group it has served.
// Reuse cannot reach a value: the parameters are overwritten with the edge
// model before any of them is read, every training step zeroes the gradients
// and rewrites each activation cache it later reads, plain SGD keeps no state
// beyond the learning rate (set at every use), and the batch buffers are
// filled before each step.
type trainer struct {
	net      *nn.Network
	opt      *nn.SGD
	batchX   *tensor.Tensor // minibatch pixels [BatchSize, InC, InH, InW]
	batchIdx []int          // minibatch index scratch

	lane   *nn.Lane32
	labels [][]int // per-slot minibatch labels; the f64 lane uses slot 0
	losses []float64
	norms  []float64
}

func (e *Engine) newTrainer() *trainer {
	batch := e.cfg.BatchSize
	return &trainer{
		net:      e.evalNet.Clone(),
		opt:      nn.NewSGD(e.lr),
		batchX:   tensor.New(batch, e.test.InC, e.test.InH, e.test.InW),
		batchIdx: make([]int, batch),
		labels:   [][]int{make([]int, batch)},
	}
}

// borrowTrainer takes a trainer off the free list, building one when the
// list is empty. Borrowers are pool tasks and deciding shards, so the list
// never holds more than Workers + Shards.
func (e *Engine) borrowTrainer() *trainer {
	e.trainerMu.Lock()
	defer e.trainerMu.Unlock()
	if k := len(e.trainers) - 1; k >= 0 {
		tr := e.trainers[k]
		e.trainers = e.trainers[:k]
		return tr
	}
	return e.newTrainer()
}

func (e *Engine) releaseTrainer(tr *trainer) {
	e.trainerMu.Lock()
	e.trainers = append(e.trainers, tr)
	e.trainerMu.Unlock()
}

// submitTrain queues trainGroup(n, lo, hi) as one pool task on a trainer
// borrowed for its duration. The bounds are parameters, not the caller's
// loop variables, so the closure captures them by value.
func (e *Engine) submitTrain(g *parallel.Group, n, lo, hi int) {
	g.Go(func() {
		tr := e.borrowTrainer()
		defer e.releaseTrainer(tr)
		e.trainGroup(n, lo, hi, tr)
	})
}

// growLane sizes the trainer's float32 lane and per-slot buffers for count
// devices.
func (tr *trainer) growLane(count int) error {
	lane, err := nn.NewLane32(tr.net, count)
	if err != nil {
		return err
	}
	tr.lane = lane
	for len(tr.labels) < count {
		tr.labels = append(tr.labels, make([]int, len(tr.batchIdx)))
	}
	tr.losses = make([]float64, count)
	tr.norms = make([]float64, count)
	return nil
}

// trainGroup runs I local SGD steps from edge n's model (Eq. 4) for the
// planned devices [lo, hi) of the edge. Each device's gradient-norm window
// and — when its upload survives — its trained parameters land in the
// plan's slot buffers (edgePlan.reserve sized them), where edgeFinalize
// reads them; an error lands on the device that met it. On the f32 lane the
// group's devices occupy lane slots 0..hi-lo and step together, layer by
// layer; slot order is plan order, so a k-slot pass equals k one-slot
// passes.
//
//machlint:allocfree
func (e *Engine) trainGroup(n, lo, hi int, tr *trainer) {
	plan := &e.plans[n]
	devs := plan.devs[lo:hi]
	uploads := plan.uploads[lo:hi]
	epochs, batch := e.cfg.LocalEpochs, e.cfg.BatchSize
	for i := range devs {
		devs[i].sqNorms = plan.norms[(lo+i)*epochs : (lo+i+1)*epochs]
	}
	if e.cfg.Lane != LaneF32 {
		tr.opt.SetLearningRate(e.lr)
		y := tr.labels[0]
		for i := range devs {
			pd := &devs[i]
			dev := e.devices[pd.m]
			if err := tr.net.SetParamVector(e.edge[n]); err != nil {
				pd.err = err
				return
			}
			for tau := range pd.sqNorms {
				dev.data.RandomBatchInto(dev.rng, tr.batchX, y, tr.batchIdx)
				_, pd.sqNorms[tau] = tr.net.TrainStep(tr.batchX, y, tr.opt)
			}
			if pd.upload {
				uploads[i] = tr.net.ParamVectorInto(uploads[i])
			}
		}
		return
	}
	if tr.lane == nil || tr.lane.Slots() < len(devs) {
		if err := tr.growLane(len(devs)); err != nil {
			devs[0].err = err
			return
		}
	}
	for i := range devs {
		if err := tr.lane.LoadParams(i, e.edge[n]); err != nil {
			devs[i].err = err
			return
		}
	}
	for tau := 0; tau < epochs; tau++ {
		for i := range devs {
			dev := e.devices[devs[i].m]
			dev.data.RandomBatchInto(dev.rng, tr.batchX, tr.labels[i], tr.batchIdx)
			tr.lane.SetInput(i, batch, tr.batchX.Data())
		}
		tr.lane.TrainStep(len(devs), batch, tr.labels, e.lr, tr.losses, tr.norms)
		for i := range devs {
			devs[i].sqNorms[tau] = tr.norms[i]
		}
	}
	for i := range devs {
		if devs[i].upload {
			uploads[i] = tr.lane.ParamsInto(i, uploads[i])
		}
	}
}
