package hfl

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/tensor"
)

// Trainer is everything a local update mutates — one float64 model replica
// with its optimizer, one minibatch buffer set and, built on first f32 use, a
// float32 lane grown to the largest group it has served — and the one unit
// that runs Eq. (4): for the engine's pool tasks and probes and for
// internal/fed's device hosts. Reuse cannot reach a value: the parameters are
// overwritten with the base model before any is read, every training step
// zeroes the gradients and rewrites each activation cache it later reads,
// plain SGD keeps no state beyond the learning rate (set at every use), and
// the batch buffers are filled before each step.
type Trainer struct {
	net      *nn.Network
	opt      *nn.SGD
	batchX   *tensor.Tensor // minibatch pixels [batch, InC, InH, InW]
	batchIdx []int          // minibatch index scratch

	lane          *nn.Lane32
	labels        [][]int   // per-slot minibatch labels; the f64 lane uses slot 0
	losses, norms []float64 // per-slot outputs of one f32 step
}

// LocalUpdate runs Eq. (4) in float64: from base, len(sqNorms) SGD steps at
// rate lr on minibatches of data drawn from rng, recording each step's squared
// stochastic-gradient norm. ParamsInto reads the trained parameters and
// AddUpdateTo folds their update.
//
//machlint:allocfree
func (tr *Trainer) LocalUpdate(base []float64, data *dataset.Dataset, rng *rand.Rand, lr float64, sqNorms []float64) error {
	if err := tr.net.SetParamVector(base); err != nil {
		return err
	}
	tr.opt.SetLearningRate(lr)
	y := tr.labels[0]
	for tau := range sqNorms {
		data.RandomBatchInto(rng, tr.batchX, y, tr.batchIdx)
		_, sqNorms[tau] = tr.net.TrainStep(tr.batchX, y, tr.opt)
	}
	return nil
}

// ParamsInto copies the last LocalUpdate's result into dst, grown as needed.
func (tr *Trainer) ParamsInto(dst []float64) []float64 { return tr.net.ParamVectorInto(dst) }

// AddUpdateTo adds the last LocalUpdate's update θ − base onto sum, one
// parameter tensor at a time: the elementwise tensor.AxpyDiff(sum, 1, θ, base)
// of ParamsInto's flat θ, bit for bit, without reading θ out.
//
//machlint:allocfree
func (tr *Trainer) AddUpdateTo(sum, base []float64) {
	off := 0
	for _, p := range tr.net.Params() {
		v := p.Value.Data()
		tensor.AxpyDiff(sum[off:off+len(v)], 1, v, base[off:off+len(v)])
		off += len(v)
	}
}

// TrainerPool is a free list of Trainers cloned from one prototype network.
// A borrower holds its trainer for one task, so a pool builds no more than it
// has concurrent borrowers — Workers + Shards in the engine, the in-flight
// training RPCs on a device host — however many devices they serve.
type TrainerPool struct {
	proto *nn.Network
	shape *dataset.Dataset // any dataset of the run; fixes the sample dims

	mu    sync.Mutex
	free  []*Trainer
	built atomic.Int64
}

// NewTrainerPool returns an empty pool of proto's clones for shape's samples.
func NewTrainerPool(proto *nn.Network, shape *dataset.Dataset) *TrainerPool {
	return &TrainerPool{proto: proto, shape: shape}
}

// Borrow takes a trainer off the free list, building one when the list is
// empty, with buffers for minibatches of batch samples.
func (p *TrainerPool) Borrow(batch int) *Trainer {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		p.free = append(p.free, &Trainer{net: p.proto.Clone(), opt: nn.NewSGD(0)})
		p.built.Add(1)
	}
	tr := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	if len(tr.batchIdx) != batch {
		tr.batchX = tensor.New(batch, p.shape.InC, p.shape.InH, p.shape.InW)
		tr.batchIdx = make([]int, batch)
		tr.labels, tr.lane = [][]int{make([]int, batch)}, nil
	}
	return tr
}

// Release returns a borrowed trainer to the free list.
func (p *TrainerPool) Release(tr *Trainer) {
	p.mu.Lock()
	p.free = append(p.free, tr)
	p.mu.Unlock()
}

// Built reports how many trainers the pool has ever built.
func (p *TrainerPool) Built() int { return int(p.built.Load()) }

// growLane sizes the trainer's float32 lane and per-slot buffers for count
// devices.
func (tr *Trainer) growLane(count int) error {
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

// trainGroup is the execution phase (DESIGN.md §5, §10): on a borrowed
// trainer it runs I local SGD steps from edge n's model (Eq. 4) for the
// planned devices [lo, hi) of the edge. Config.Lane picks the arithmetic and
// Config.FuseBatch only how the shard cuts a plan into pool tasks; neither
// can reach a value, because every device's minibatches come from its own
// dev.rng in local-epoch order whatever group or trainer serves it, a trainer
// carries nothing between devices, and aggregation boundaries stay float64 —
// the f32 lane trains float32 copies of float64 master weights and uploads
// the masters. Each device's gradient-norm window and — when its upload
// survives — its trained parameters land in the plan's slot buffers
// (edgePlan.reserve sized them), where edgeFinalize reads them; an error
// lands on the device that met it. On the f32 lane the group's devices occupy
// lane slots 0..hi-lo and step together, layer by layer; slot order is plan
// order, so a k-slot pass equals k one-slot passes.
//
//machlint:allocfree
func (e *Engine) trainGroup(n, lo, hi int, tr *Trainer) {
	plan := &e.plans[n]
	devs := plan.devs[lo:hi]
	uploads := plan.uploads[lo:hi]
	epochs, batch := e.cfg.LocalEpochs, e.cfg.BatchSize
	norms := plan.norms[lo*epochs : hi*epochs]
	if e.cfg.Lane != LaneF32 {
		for i := range devs {
			pd, dev := &devs[i], e.devices[devs[i].m]
			if pd.err = tr.LocalUpdate(e.edge[n], dev.data, dev.rng, e.cfg.LearningRate, norms[i*epochs:(i+1)*epochs]); pd.err != nil {
				return
			}
			if pd.upload {
				uploads[i] = tr.ParamsInto(uploads[i])
			}
		}
		return
	}
	if tr.lane == nil || tr.lane.Slots() < len(devs) {
		if devs[0].err = tr.growLane(len(devs)); devs[0].err != nil {
			return
		}
	}
	for i := range devs {
		if devs[i].err = tr.lane.LoadParams(i, e.edge[n]); devs[i].err != nil {
			return
		}
	}
	for tau := 0; tau < epochs; tau++ {
		for i := range devs {
			dev := e.devices[devs[i].m]
			dev.data.RandomBatchInto(dev.rng, tr.batchX, tr.labels[i], tr.batchIdx)
			tr.lane.SetInput(i, batch, tr.batchX.Data())
		}
		tr.lane.TrainStep(len(devs), batch, tr.labels, e.cfg.LearningRate, tr.losses, tr.norms)
		for i := range devs {
			norms[i*epochs+tau] = tr.norms[i]
		}
	}
	for i := range devs {
		if devs[i].upload {
			uploads[i] = tr.lane.ParamsInto(i, uploads[i])
		}
	}
}
