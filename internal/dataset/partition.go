package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// LongTailed returns the long-tailed label law p(c) ∝ ratio^c over the given
// number of classes, the distribution family the paper uses for both the
// global data and the per-device data. ratio ∈ (0,1]; ratio = 1 degenerates
// to uniform, smaller ratios are more imbalanced.
func LongTailed(classes int, ratio float64) []float64 {
	p := make([]float64, classes)
	total := 0.0
	for c := range p {
		p[c] = math.Pow(ratio, float64(c))
		total += p[c]
	}
	for c := range p {
		p[c] /= total
	}
	return p
}

// PartitionConfig controls the non-IID device partition of a task.
type PartitionConfig struct {
	// Devices is the number of mobile devices.
	Devices int
	// SamplesPerDevice is the local dataset size |D_m| (the paper assumes
	// it equal across devices).
	SamplesPerDevice int
	// SizeSpread, when positive, draws each device's dataset size from a
	// log-normal around SamplesPerDevice with this σ — the general
	// weighted-average setting the paper simplifies away (§II-B). Engines
	// weight plain aggregation by |D_m| when sizes differ.
	SizeSpread float64
	// TailRatio is the long-tail decay of each device's local label law.
	TailRatio float64
	// NoisyDeviceFraction is the fraction of devices whose labels are
	// partially corrupted (label noise), modelling the unreliable clients
	// real federated populations contain. A corrupted device keeps
	// permanently large gradient norms while providing conflicting
	// updates, which is exactly the failure mode utility-based samplers
	// must be robust to (cf. Oort's outlier handling).
	NoisyDeviceFraction float64
	// NoisyLabelFraction is the fraction of a noisy device's samples whose
	// label is replaced with a uniformly random class.
	NoisyLabelFraction float64
	// GlobalTailRatio is the long-tail decay of the *global* label law:
	// each device's dominant class is drawn from LongTailed(classes,
	// GlobalTailRatio), so rare classes are held by few devices — the
	// paper's "both the global and the devices' data distribution follow a
	// long-tailed distribution". Zero or one means a uniform global law
	// (dominant classes spread evenly).
	GlobalTailRatio float64
	// Seed drives the random class permutations and the sampling.
	Seed int64
}

// Validate reports whether the partition config is usable.
func (c PartitionConfig) Validate() error {
	switch {
	case c.Devices <= 0:
		return fmt.Errorf("dataset: partition needs ≥ 1 device, got %d", c.Devices)
	case c.SamplesPerDevice <= 0:
		return fmt.Errorf("dataset: partition needs ≥ 1 sample per device, got %d", c.SamplesPerDevice)
	case c.TailRatio <= 0 || c.TailRatio > 1:
		return fmt.Errorf("dataset: tail ratio %v outside (0,1]", c.TailRatio)
	case c.GlobalTailRatio < 0 || c.GlobalTailRatio > 1:
		return fmt.Errorf("dataset: global tail ratio %v outside [0,1]", c.GlobalTailRatio)
	case c.NoisyDeviceFraction < 0 || c.NoisyDeviceFraction > 1:
		return fmt.Errorf("dataset: noisy device fraction %v outside [0,1]", c.NoisyDeviceFraction)
	case c.NoisyLabelFraction < 0 || c.NoisyLabelFraction > 1:
		return fmt.Errorf("dataset: noisy label fraction %v outside [0,1]", c.NoisyLabelFraction)
	case c.SizeSpread < 0:
		return fmt.Errorf("dataset: size spread %v negative", c.SizeSpread)
	}
	return nil
}

// Partition draws one local dataset per device. Each device's label law is
// the long-tailed distribution under a device-specific random permutation of
// the classes, so each device has a few dominant classes and a long tail of
// rare ones — the statistical-heterogeneity model of the evaluation
// ("both the global and the devices' data distribution follow a long-tailed
// distribution", §IV-A2). The initial edge distribution is whatever device
// mobility induces, i.e. random, also as in the paper.
//
// The returned slice additionally carries each device's realized label law
// via Dataset.ClassDistribution.
func Partition(task *Task, cfg PartitionConfig) ([]*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	classes := task.Spec.Classes
	base := LongTailed(classes, cfg.TailRatio)
	var globalLaw []float64
	if cfg.GlobalTailRatio > 0 && cfg.GlobalTailRatio < 1 {
		globalLaw = LongTailed(classes, cfg.GlobalTailRatio)
	}
	out := make([]*Dataset, cfg.Devices)
	for m := range out {
		// Device class ranking: the dominant class is drawn from the
		// global law (rare classes dominate few devices), the remaining
		// classes are shuffled behind it.
		perm := rng.Perm(classes)
		if globalLaw != nil {
			dominant := SampleClass(rng, globalLaw)
			for i, c := range perm {
				if c == dominant {
					perm[0], perm[i] = perm[i], perm[0]
					break
				}
			}
		}
		law := make([]float64, classes)
		for c, p := range perm {
			law[p] = base[c]
		}
		size := cfg.SamplesPerDevice
		if cfg.SizeSpread > 0 {
			size = int(float64(cfg.SamplesPerDevice) * math.Exp(rng.NormFloat64()*cfg.SizeSpread))
			if size < 1 {
				size = 1
			}
		}
		d, err := task.Generate(rng, size, law)
		if err != nil {
			return nil, fmt.Errorf("dataset: device %d: %w", m, err)
		}
		if cfg.NoisyDeviceFraction > 0 && rng.Float64() < cfg.NoisyDeviceFraction {
			corruptLabels(rng, d, cfg.NoisyLabelFraction)
		}
		d.Name = fmt.Sprintf("%s-dev%d", task.Spec.Name, m)
		out[m] = d
	}
	return out, nil
}

// corruptLabels replaces the given fraction of a dataset's labels with
// uniformly random classes.
func corruptLabels(rng *rand.Rand, d *Dataset, fraction float64) {
	for i := 0; i < d.Len(); i++ {
		if rng.Float64() < fraction {
			d.labels[i] = rng.Intn(d.Classes)
		}
	}
}
