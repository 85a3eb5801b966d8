package sampling

import (
	"fmt"
	"math"
)

// MACHConfig parameterizes the MACH strategy.
type MACHConfig struct {
	// Alpha and Beta are the control coefficients of the transfer function
	// S(q̂) = 1 + α(1/(1+e^{β·q̂}) − 1/2) of Eq. (17). S must be positive
	// and increasing in q̂ so devices with larger estimated gradient norms
	// receive larger probabilities (Remark 2), which requires 0 < α < 2
	// and β < 0 (the paper writes the exponent as +β·q̂ and leaves the
	// signs task-specific).
	Alpha float64
	Beta  float64
	// ExplorationCoef scales the UCB confidence radius of Eq. (15).
	ExplorationCoef float64
	// QMin floors every sampling probability, preventing the q→0
	// aggregation blow-ups §III-B2 warns about.
	QMin float64
	// Discount geometrically decays the exploitation term's historical max
	// at every cloud round so the estimate tracks the current
	// gradient-norm scale; 1 reproduces Eq. (15)'s all-time max literally.
	Discount float64
	// RawEq13 disables the transfer-function smoothing (Eqs. 17-18) and
	// uses the virtual probabilities of Eq. (16) directly, clipped to
	// [QMin, 1]. §III-B2 warns this invites extreme probabilities; the
	// ablation bench quantifies the effect.
	RawEq13 bool
}

// DefaultMACHConfig returns the configuration used by the benchmarks.
func DefaultMACHConfig() MACHConfig {
	return MACHConfig{Alpha: 1.9, Beta: -2, ExplorationCoef: 1, QMin: 0.02, Discount: 0.9}
}

// Validate reports whether the configuration is usable.
func (c MACHConfig) Validate() error {
	switch {
	case c.Alpha <= 0 || c.Alpha >= 2:
		return fmt.Errorf("sampling: MACH alpha %v outside (0,2)", c.Alpha)
	case c.Beta >= 0:
		return fmt.Errorf("sampling: MACH beta %v must be negative for S to increase with q̂", c.Beta)
	case c.ExplorationCoef < 0:
		return fmt.Errorf("sampling: MACH exploration coefficient %v negative", c.ExplorationCoef)
	case c.QMin < 0 || c.QMin >= 1:
		return fmt.Errorf("sampling: MACH qmin %v outside [0,1)", c.QMin)
	case c.Discount <= 0 || c.Discount > 1:
		return fmt.Errorf("sampling: MACH discount %v outside (0,1]", c.Discount)
	}
	return nil
}

// Transfer is the smoothing transfer function S(·) of Eq. (17). It maps a
// virtual probability q̂ ∈ [0, K_n] to a score near 1, bounded in
// (1−α/2, 1+α/2), so that early, noisy estimates cannot push any device's
// probability toward 0 or dominate the edge.
func (c MACHConfig) Transfer(qHat float64) float64 {
	return 1 + c.Alpha*(1/(1+math.Exp(c.Beta*qHat))-0.5)
}

// MACH is the paper's mobility-aware device sampling strategy. Each edge
// independently computes, for the devices currently attached to it:
//
//  1. the UCB gradient-norm estimates G̃²_m (experience updating,
//     Algorithm 2),
//  2. virtual probabilities q̂_m = K_n·G̃²_m / Σ G̃²_{m'} (Eq. 16, the
//     closed-form optimum of Remark 2 under estimates),
//  3. smoothed scores S(q̂_m) (Eq. 17), and
//  4. final probabilities q_m = K_n·S(q̂_m)/Σ S(q̂_{m'}) (Eq. 18).
type MACH struct {
	cfg  MACHConfig
	book *ExperienceBook
}

var (
	_ Strategy = (*MACH)(nil)
	_ Observer = (*MACH)(nil)
)

// NewMACH returns a MACH strategy tracking numDevices devices.
func NewMACH(numDevices int, cfg MACHConfig) (*MACH, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &MACH{cfg: cfg, book: NewExperienceBook(numDevices, cfg.ExplorationCoef, cfg.Discount)}, nil
}

// Name implements Strategy.
func (*MACH) Name() string { return "mach" }

// Unbiased implements Strategy.
func (*MACH) Unbiased() bool { return true }

// Book exposes the experience book for inspection in tests and analysis.
func (s *MACH) Book() *ExperienceBook { return s.book }

// ObserveBatch implements Observer (Algorithm 2, line 1): one book lock per
// batch. The edges are ignored: MACH's experience buffer lives on the device,
// so experiences follow the device across edges.
func (s *MACH) ObserveBatch(_ int, _, devices []int, norms [][]float64) {
	s.book.ObserveMany(devices, norms)
}

// CloudRound implements Observer (Algorithm 2, lines 2-4).
func (s *MACH) CloudRound(t int) { s.book.CloudRound(t) }

// ProbabilitiesInto implements Strategy (Algorithm 3): the UCB estimates of
// Eq. (15) are batched into ctx.Scratch (one book lock per edge) and reported
// as ctx.Estimates, and every result is written into dst.
//
//machlint:allocfree
func (s *MACH) ProbabilitiesInto(ctx *EdgeContext, dst []float64) []float64 {
	estimates := ensureLen(ctx.Scratch, len(ctx.Members))
	ctx.Scratch, ctx.Estimates, ctx.Floor = estimates, estimates, s.cfg.QMin
	s.book.UCBEstimatesInto(estimates, ctx.Members, ctx.Step)
	if s.cfg.RawEq13 {
		// Ablation path: Eq. (16) plugged in directly without smoothing.
		return capProbabilitiesInto(dst, estimates, ctx.Capacity, s.cfg.QMin)
	}
	return EdgeSamplingInto(s.cfg, ctx.Capacity, estimates, dst)
}

// EdgeSamplingInto is the core of Algorithm 3: given the gradient-norm
// estimates of an edge's members, it computes the virtual probabilities of
// Eq. (16), smooths them with the transfer function of Eq. (17), and
// normalizes to the channel capacity (Eq. 18), into a caller-owned buffer
// grown only when its capacity is insufficient. It is shared by the
// in-process strategies and the distributed edge server of internal/fed. dst
// may alias estimates: the estimate total is accumulated before any write and
// each score depends only on its own estimate.
//
//machlint:aliasok the estimate total is accumulated before any write and dst[i] depends only on estimates[i]
//
//machlint:allocfree
func EdgeSamplingInto(cfg MACHConfig, capacity float64, estimates, dst []float64) []float64 {
	total := 0.0
	for _, g := range estimates {
		total += g
	}
	dst = ensureLen(dst, len(estimates))
	for i, g := range estimates {
		qHat := 0.0
		if total > 0 {
			qHat = capacity * g / total // Eq. (16)
		}
		dst[i] = cfg.Transfer(qHat) // Eq. (17)
	}
	return capProbabilitiesInto(dst, dst, capacity, cfg.QMin) // Eq. (18)
}
