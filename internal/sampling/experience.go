package sampling

import (
	"math"
	"sync"
)

// deviceExperience is the per-device state of Algorithm 2: the gradient
// experience buffer G^t_m since the last edge-to-cloud communication, kept
// as a running sum (from 0, in arrival order: the buffer's sequential mean's
// bits) and count, plus the sufficient statistics of the UCB score.
type deviceExperience struct {
	sum     float64 // Σ of the current window's squared norms
	count   int     // how many norms the window holds
	maxAvg  float64 // max over windows of Avg(buffer): exploitation term A
	lastAvg float64 // most recent window average (statistical sampling uses it)
	steps   int     // Σ_{t'} 1^{t'}_m — participated time steps
	seen    bool    // whether the device ever participated
}

// ExperienceBook tracks training experiences for every device and produces
// the UCB estimates G̃²_m of Eq. (15). It is shared by MACH (UCB estimates)
// and statistical sampling (last-window averages). It is safe for concurrent
// use: edges observe devices in parallel during a step.
type ExperienceBook struct {
	mu sync.Mutex
	// explorationCoef scales the confidence-radius term B of Eq. (15) so
	// exploration can be matched to the gradient-norm scale of the task.
	explorationCoef float64
	discount        float64
	devices         []deviceExperience
}

// NewExperienceBook tracks numDevices devices. explorationCoef scales the
// UCB confidence radius (1.0 reproduces Eq. (15) literally). discount ∈
// (0,1] geometrically decays the historical max at every cloud round so the
// exploitation term tracks the *current* gradient-norm scale as training
// drives norms down; 1 reproduces Eq. (15)'s all-time max literally (the
// ablation bench compares both).
func NewExperienceBook(numDevices int, explorationCoef, discount float64) *ExperienceBook {
	if discount <= 0 || discount > 1 {
		discount = 1
	}
	return &ExperienceBook{
		explorationCoef: explorationCoef,
		discount:        discount,
		devices:         make([]deviceExperience, numDevices),
	}
}

// ObserveMany adds, for every element, the squared norms of device
// devices[i]'s local stochastic gradients from one time step to its
// experience window (Algorithm 2, line 1) — under a single lock, one per batch
// however many devices trained. Empty norm windows record nothing.
func (b *ExperienceBook) ObserveMany(devices []int, norms [][]float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, m := range devices {
		sqNorms := norms[i]
		if len(sqNorms) == 0 {
			continue
		}
		d := &b.devices[m]
		for _, v := range sqNorms {
			d.sum += v
		}
		d.count += len(sqNorms)
		d.steps++
		d.seen = true
	}
}

// CloudRound folds the current windows into the UCB statistics and clears
// them (Algorithm 2, lines 2-4). t is the current time step, used by the
// confidence radius √(log t / Σ 1).
func (b *ExperienceBook) CloudRound(t int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for m := range b.devices {
		d := &b.devices[m]
		d.maxAvg *= b.discount
		if d.count == 0 {
			continue
		}
		avg := d.sum / float64(d.count)
		d.lastAvg = avg
		if avg > d.maxAvg {
			d.maxAvg = avg
		}
		d.sum, d.count = 0, 0
	}
}

// UCBEstimatesInto writes G̃²_m of Eq. (15) for every member into dst
// (aligned with members, which must not be longer than dst): the max
// window-average (term A) plus the confidence radius √(log t / Σ 1^t_m)
// (term B). A device that has never participated receives a pure exploration
// score √(log t), which keeps it attractive until sampled at least once. One
// lock per call — at scale, one per edge instead of one per member.
func (b *ExperienceBook) UCBEstimatesInto(dst []float64, members []int, t int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	logT := math.Log(float64(t) + 2) // +2 keeps the radius defined at t ∈ {0,1}
	for i, m := range members {
		d := &b.devices[m]
		steps := d.steps
		if steps < 1 {
			steps = 1
		}
		dst[i] = d.maxAvg + b.explorationCoef*math.Sqrt(logT/float64(steps))
	}
}

// LastAverage returns the most recent window-average gradient norm of device
// m, or fallback when the device has no folded experience yet. Statistical
// sampling uses it as its (exploration-free) norm estimate.
func (b *ExperienceBook) LastAverage(m int, fallback float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := &b.devices[m]
	//machlint:allow floateq exact zero is the "no folded experience yet" sentinel, never a computed norm
	if !d.seen || d.lastAvg == 0 {
		return fallback
	}
	return d.lastAvg
}

// Participations returns how many time steps device m has participated in.
func (b *ExperienceBook) Participations(m int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.devices[m].steps
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
