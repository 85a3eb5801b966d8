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

// DirichletPartition draws one local dataset per device with label laws
// sampled from a symmetric Dirichlet(α) distribution — the other standard
// non-IID partition in the FL literature (Hsu et al., 2019). Small α gives
// near-one-class devices; large α approaches IID. It complements the paper's
// long-tailed scheme for sensitivity studies.
func DirichletPartition(task *Task, devices, samplesPerDevice int, alpha float64, seed int64) ([]*Dataset, error) {
	if devices <= 0 || samplesPerDevice <= 0 {
		return nil, fmt.Errorf("dataset: dirichlet partition needs positive devices/samples")
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("dataset: dirichlet alpha %v must be positive", alpha)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Dataset, devices)
	for m := range out {
		law := dirichlet(rng, task.Spec.Classes, alpha)
		d, err := task.Generate(rng, samplesPerDevice, law)
		if err != nil {
			return nil, fmt.Errorf("dataset: dirichlet device %d: %w", m, err)
		}
		d.Name = fmt.Sprintf("%s-dir%d", task.Spec.Name, m)
		out[m] = d
	}
	return out, nil
}

// dirichlet samples a symmetric Dirichlet(α) vector via normalized Gamma
// draws (Marsaglia-Tsang for α ≥ 1, boosted for α < 1).
func dirichlet(rng *rand.Rand, k int, alpha float64) []float64 {
	out := make([]float64, k)
	total := 0.0
	for i := range out {
		out[i] = gammaSample(rng, alpha)
		total += out[i]
	}
	//machlint:allow floateq degenerate-draw guard; only an exact all-zero sample needs the uniform fallback
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(k)
		}
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// gammaSample draws from Gamma(shape, 1).
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1)·U^(1/a).
		u := rng.Float64()
		//machlint:allow floateq rejection sampling: only the exact zero makes math.Log diverge
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	// Marsaglia-Tsang squeeze method.
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
