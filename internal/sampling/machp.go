package sampling

import "sync"

// MACHP is the perfect-information variant of MACH used as an upper-bound
// benchmark in the evaluation ("we assume that the training experiences for
// each device in every time step are known, i.e., without online experience
// updating", §IV-A3). Instead of UCB estimates it probes the true squared
// stochastic-gradient norm of every attached device under the current model
// and feeds those exact values through the same edge-sampling pipeline
// (Eqs. 16-18).
type MACHP struct {
	cfg MACHConfig

	mu    sync.Mutex
	step  int
	cache map[int]float64 // device → probed norm, valid for the current step
}

var _ Strategy = (*MACHP)(nil)

// NewMACHP returns the perfect-information MACH variant.
func NewMACHP(cfg MACHConfig) (*MACHP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &MACHP{cfg: cfg, cache: make(map[int]float64)}, nil
}

// Name implements Strategy.
func (*MACHP) Name() string { return "mach-p" }

// Unbiased implements Strategy.
func (*MACHP) Unbiased() bool { return true }

// ProbabilitiesInto implements Strategy: the probed true norms, reported as
// ctx.Estimates, fed through the Eq. (16)-(18) pipeline of EdgeSamplingInto.
func (s *MACHP) ProbabilitiesInto(ctx *EdgeContext, dst []float64) []float64 {
	norms := ensureLen(ctx.Scratch, len(ctx.Members))
	ctx.Scratch, ctx.Estimates, ctx.Floor = norms, norms, s.cfg.QMin
	for i, m := range ctx.Members {
		norms[i] = s.probe(ctx, m)
	}
	return EdgeSamplingInto(s.cfg, ctx.Capacity, norms, dst)
}

// probe measures (or recalls) the device's true gradient norm for the
// current step. Edges run concurrently within a step, so the cache is
// guarded; it is invalidated whenever the step advances.
func (s *MACHP) probe(ctx *EdgeContext, m int) float64 {
	if ctx.ProbeGradNorm == nil {
		return 1 // engine without probing support: degrade to uniform
	}
	s.mu.Lock()
	if ctx.Step != s.step {
		s.step = ctx.Step
		clear(s.cache)
	}
	if v, ok := s.cache[m]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	v := ctx.ProbeGradNorm(m)
	s.mu.Lock()
	s.cache[m] = v
	s.mu.Unlock()
	return v
}
