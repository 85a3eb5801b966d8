package sampling

import (
	"fmt"
	"math"
	"sync"
)

// OortConfig parameterizes the Oort-style utility sampler.
type OortConfig struct {
	// ExplorationFraction is the share of the capacity reserved for
	// devices the sampler has never trained.
	ExplorationFraction float64
	// StalenessCoef scales the staleness bonus √(log t / last-seen age).
	StalenessCoef float64
	// OutlierQuantile caps utilities at this quantile of the currently
	// observed utilities (Oort's outlier-robustness mechanism).
	OutlierQuantile float64
	// QMin floors the probabilities like the other strategies.
	QMin float64
}

// DefaultOortConfig mirrors the reference system's defaults.
func DefaultOortConfig() OortConfig {
	return OortConfig{
		ExplorationFraction: 0.2,
		StalenessCoef:       1,
		OutlierQuantile:     0.95,
		QMin:                0.02,
	}
}

// Validate reports whether the config is usable.
func (c OortConfig) Validate() error {
	switch {
	case c.ExplorationFraction < 0 || c.ExplorationFraction > 1:
		return fmt.Errorf("sampling: oort exploration fraction %v outside [0,1]", c.ExplorationFraction)
	case c.StalenessCoef < 0:
		return fmt.Errorf("sampling: oort staleness coefficient %v negative", c.StalenessCoef)
	case c.OutlierQuantile <= 0 || c.OutlierQuantile > 1:
		return fmt.Errorf("sampling: oort outlier quantile %v outside (0,1]", c.OutlierQuantile)
	case c.QMin < 0 || c.QMin >= 1:
		return fmt.Errorf("sampling: oort qmin %v outside [0,1)", c.QMin)
	}
	return nil
}

// Oort is an extension strategy beyond the paper's benchmark set: the
// utility-based participant selection of Lai et al. (OSDI 2021) adapted to
// per-edge sampling. Utility is the observed gradient-norm signal with a
// staleness bonus, clipped at a quantile to resist outlier (noisy-label)
// devices — the robustness mechanism MACH achieves through its bounded
// transfer function. Like MACH, its state is device-side, so it survives
// mobility; it differs in the exploration budget and the outlier clipping.
type Oort struct {
	cfg OortConfig

	mu       sync.Mutex
	utility  []float64
	lastSeen []int
	seen     []bool
}

var (
	_ Strategy = (*Oort)(nil)
	_ Observer = (*Oort)(nil)
)

// NewOort returns the Oort-style extension strategy.
func NewOort(numDevices int, cfg OortConfig) (*Oort, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Oort{
		cfg:      cfg,
		utility:  make([]float64, numDevices),
		lastSeen: make([]int, numDevices),
		seen:     make([]bool, numDevices),
	}, nil
}

// Name implements Strategy.
func (*Oort) Name() string { return "oort" }

// Unbiased implements Strategy: Oort is an active-selection system with
// plain aggregation over participants.
func (*Oort) Unbiased() bool { return false }

// ObserveBatch implements Observer: a device's utility is the mean observed
// squared norm of its window, exponentially averaged across steps.
func (o *Oort) ObserveBatch(t int, _, devices []int, norms [][]float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, m := range devices {
		if len(norms[i]) == 0 {
			continue
		}
		avg := mean(norms[i])
		if o.seen[m] {
			o.utility[m] = 0.7*o.utility[m] + 0.3*avg
		} else {
			o.utility[m] = avg
			o.seen[m] = true
		}
		o.lastSeen[m] = t
	}
}

// CloudRound implements Observer (no round-boundary state).
func (*Oort) CloudRound(int) {}

// ProbabilitiesInto implements Strategy.
func (o *Oort) ProbabilitiesInto(ctx *EdgeContext, dst []float64) []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()

	n := len(ctx.Members)
	out := ensureLen(dst, n)
	if n == 0 {
		return out
	}
	k := int(ctx.Capacity + 0.5)
	if k < 1 {
		k = 1
	}
	if k >= n {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	clear(out)

	// Split members into explored and unexplored.
	var explored, unexplored []int // indices into ctx.Members
	for i, m := range ctx.Members {
		if o.seen[m] {
			explored = append(explored, i)
		} else {
			unexplored = append(unexplored, i)
		}
	}

	// Exploration budget: uniformly random unexplored devices.
	explCount := int(float64(k)*o.cfg.ExplorationFraction + 0.5)
	if explCount > len(unexplored) {
		explCount = len(unexplored)
	}
	for _, idx := range ctx.RNG.Perm(len(unexplored))[:explCount] {
		out[unexplored[idx]] = 1
	}

	// Exploitation: top-(k−explCount) explored devices by clipped utility
	// plus staleness bonus.
	exploit := k - explCount
	if exploit <= 0 || len(explored) == 0 {
		return out
	}
	cap95 := o.clipLevel(explored, ctx.Members)
	type scored struct {
		idx   int
		score float64
	}
	scores := make([]scored, 0, len(explored))
	for _, i := range explored {
		m := ctx.Members[i]
		u := o.utility[m]
		if u > cap95 {
			u = cap95
		}
		age := ctx.Step - o.lastSeen[m]
		if age < 1 {
			age = 1
		}
		u += o.cfg.StalenessCoef * math.Sqrt(math.Log(float64(ctx.Step+2))/float64(age))
		scores = append(scores, scored{idx: i, score: u})
	}
	// Partial selection of the top `exploit` scores.
	for sel := 0; sel < exploit && sel < len(scores); sel++ {
		best := sel
		for j := sel + 1; j < len(scores); j++ {
			if scores[j].score > scores[best].score {
				best = j
			}
		}
		scores[sel], scores[best] = scores[best], scores[sel]
		out[scores[sel].idx] = 1
	}
	return out
}

// clipLevel returns the configured quantile of the explored members'
// utilities.
func (o *Oort) clipLevel(explored []int, members []int) float64 {
	vals := make([]float64, 0, len(explored))
	for _, i := range explored {
		vals = append(vals, o.utility[members[i]])
	}
	// insertion sort: member lists are small
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	idx := int(o.cfg.OutlierQuantile * float64(len(vals)-1))
	return vals[idx]
}
