package hfl

import (
	"sync"
	"sync/atomic"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/tensor"
)

// Trainer is everything a local update mutates — one float64 model replica
// with its optimizer, one minibatch buffer set, one minibatch stream per lane
// slot and, built on first f32 use, a float32 lane grown to the largest group
// it has served — and the one unit that runs Eq. (4): for the engine's pool
// tasks and probes and for internal/fed's device hosts. Reuse cannot reach a
// value: the parameters are overwritten with the base model before any is
// read, every training step zeroes the gradients and rewrites each activation
// cache it later reads, plain SGD keeps no state beyond the learning rate (set
// at every use), each stream is re-seeded to the update's seed-table key
// before it draws, and the batch buffers are filled before each step.
type Trainer struct {
	net      *nn.Network
	opt      *nn.SGD
	batchX   *tensor.Tensor // minibatch pixels [batch, InC, InH, InW]
	batchIdx []int          // minibatch index scratch
	streams  []det.Stream   // per-slot minibatch streams; the f64 lane uses slot 0

	lane          *nn.Lane32
	labels        [][]int   // per-slot minibatch labels; the f64 lane uses slot 0
	losses, norms []float64 // per-slot outputs of one f32 step
}

// LocalUpdate runs Eq. (4) in float64: from base, len(sqNorms) SGD steps at
// rate lr on minibatches of data drawn at seed (det.DeviceBatch, or det.Probe
// for MACH-P), recording each step's squared stochastic-gradient norm. Fold
// reads the trained parameters in place.
//
//machlint:allocfree
func (tr *Trainer) LocalUpdate(base []float64, data *dataset.Dataset, seed int64, lr float64, sqNorms []float64) error {
	if err := tr.net.SetParamVector(base); err != nil {
		return err
	}
	tr.opt.SetLearningRate(lr)
	rng, y := &tr.streams[0], tr.labels[0]
	rng.Seed(seed)
	for tau := range sqNorms {
		data.RandomBatchInto(rng, tr.batchX, y, tr.batchIdx)
		_, sqNorms[tau] = tr.net.TrainStep(tr.batchX, y, tr.opt)
	}
	return nil
}

// TrainFold is the float64 edge task, the engine's and a device host's: per
// pick in order, a LocalUpdate from `from` on data[pick.Device] at its
// det.DeviceBatch(run, step, device) key, norm window norms[i·I:(i+1)·I],
// then an upload's Fold into dst against base. An error stops the task and
// returns the index of the pick that met it.
//
//machlint:allocfree
func (tr *Trainer) TrainFold(dst, from, base []float64, data []*dataset.Dataset, picks []Pick, run int64, step int, lr float64, norms []float64) (int, error) {
	epochs := len(norms) / max(len(picks), 1)
	for i, p := range picks {
		if err := tr.LocalUpdate(from, data[p.Device], det.DeviceBatch(run, step, p.Device), lr, norms[i*epochs:(i+1)*epochs]); err != nil {
			return i, err
		}
		if p.Upload {
			tr.Fold(dst, base, p.Weight, -1)
		}
	}
	return 0, nil
}

// Fold adds w·(θ − base) onto dst (w·θ when base is nil), θ the trained
// parameters — the f32 lane's slot masters for slot ≥ 0, the last
// LocalUpdate's network for −1 — read in place: bit for bit the flat
// tensor.AxpyDiff (tensor.Axpy). Eq. (5)'s edge fold, and fed's update sum.
//
//machlint:allocfree
func (tr *Trainer) Fold(dst, base []float64, w float64, slot int) {
	if slot >= 0 {
		fold(dst, base, w, tr.lane.Master(slot), 0)
		return
	}
	off := 0
	for _, p := range tr.net.Params() {
		fold(dst, base, w, p.Value.Data(), off)
		off += p.Value.Len()
	}
}

// fold is Fold on the stretch theta of θ, which starts at offset off.
func fold(dst, base []float64, w float64, theta []float64, off int) {
	end := off + len(theta)
	if base == nil {
		tensor.Axpy(dst[off:end], w, theta)
		return
	}
	tensor.AxpyDiff(dst[off:end], w, theta, base[off:end])
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
		p.free = append(p.free, &Trainer{net: p.proto.Clone(), opt: nn.NewSGD(0), streams: make([]det.Stream, 1)})
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

// growLane sizes the trainer's float32 lane, per-slot buffers and streams for
// count devices.
func (tr *Trainer) growLane(count int) error {
	lane, err := nn.NewLane32(tr.net, count)
	if err != nil {
		return err
	}
	tr.lane = lane
	for len(tr.labels) < count {
		tr.labels = append(tr.labels, make([]int, len(tr.batchIdx)))
	}
	tr.streams = make([]det.Stream, count)
	tr.losses = make([]float64, count)
	tr.norms = make([]float64, count)
	return nil
}

// trainEdge is edge n's execution phase (DESIGN.md §5, §10): on a borrowed
// trainer, I local SGD steps from the edge model (Eq. 4) for each planned
// device in member order, each surviving upload folded into aggNext[n] with
// its decide weight as soon as it is trained (Eq. 5; foldStart), and each
// norm window left in the plan. Config.Lane picks the arithmetic and
// FuseBatch whether the devices share f32 lane slots (device i in slot i,
// stepping together; a k-slot pass equals k one-slot passes); neither can
// reach a value, since each device's minibatches are drawn at its
// det.DeviceBatch key for the step, a trainer carries nothing between
// devices, and the fold reads the float64 masters. An error ends the task,
// recorded with the pick that met it.
//
//machlint:allocfree
func (e *Engine) trainEdge(n int, tr *Trainer) {
	plan := &e.plans[n]
	devs, epochs, batch := plan.Picks, e.cfg.LocalEpochs, e.cfg.BatchSize
	next, base := e.foldStart(n)
	if e.cfg.Lane != LaneF32 {
		plan.failAt, plan.failErr = tr.TrainFold(next, e.edge[n], base, e.data, devs, e.cfg.Seed, plan.step, e.cfg.LearningRate, plan.norms[:len(devs)*epochs])
		return
	}
	size := 1
	if e.cfg.FuseBatch {
		size = len(devs)
	}
	if tr.lane == nil || tr.lane.Slots() < size {
		if err := tr.growLane(size); err != nil {
			plan.failErr, plan.failAt = err, 0
			return
		}
	}
	for lo := 0; lo < len(devs); lo += size {
		group, norms := devs[lo:lo+size], plan.norms[lo*epochs:(lo+size)*epochs]
		for i := range group {
			if err := tr.lane.LoadParams(i, e.edge[n]); err != nil {
				plan.failErr, plan.failAt = err, lo+i
				return
			}
			tr.streams[i].Seed(det.DeviceBatch(e.cfg.Seed, plan.step, group[i].Device))
		}
		for tau := 0; tau < epochs; tau++ {
			for i := range group {
				e.data[group[i].Device].RandomBatchInto(&tr.streams[i], tr.batchX, tr.labels[i], tr.batchIdx)
				tr.lane.SetInput(i, batch, tr.batchX.Data())
			}
			tr.lane.TrainStep(len(group), batch, tr.labels, e.cfg.LearningRate, tr.losses, tr.norms)
			for i := range group {
				norms[i*epochs+tau] = tr.norms[i]
			}
		}
		for i := range group {
			if group[i].Upload {
				tr.Fold(next, base, group[i].Weight, i)
			}
		}
	}
}
