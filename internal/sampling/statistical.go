package sampling

import (
	"fmt"
	"sync"

	"github.com/mach-fl/mach/internal/det"
)

// Statistical is the statistical-sampling baseline (SS): device probabilities
// proportional to the most recently observed average gradient norm, the
// importance/utility sampling rule of Cho et al. (AISTATS 2022) and Oort
// (OSDI 2021) applied per edge. Two deliberate differences from MACH mirror
// how such samplers behave when dropped into HFL with mobile devices:
//
//   - estimates live on the *edge* that observed them (a server-side utility
//     table, as in Oort). When a device moves to another edge it arrives
//     with no record and is scored by the prior, so mobility continually
//     erodes the estimator — the cross-edge experience-sharing problem the
//     paper poses in §I;
//   - there is no confidence radius (no exploration) and no transfer-
//     function smoothing, so early noisy observations feed straight into
//     the probabilities.
type Statistical struct {
	mu    sync.Mutex
	books map[int]*ExperienceBook // per-edge experience tables

	numDevices int
	// priorNorm seeds devices the edge has never observed; with every
	// device at the prior the strategy starts uniform.
	priorNorm float64
	qMin      float64
}

var (
	_ Strategy = (*Statistical)(nil)
	_ Observer = (*Statistical)(nil)
)

// NewStatistical returns the statistical sampling baseline. qMin floors the
// probabilities exactly as in MACH so the comparison isolates the estimator
// and smoothing, not numerical guards.
func NewStatistical(numDevices int, qMin float64) (*Statistical, error) {
	if qMin < 0 || qMin >= 1 {
		return nil, fmt.Errorf("sampling: statistical qmin %v outside [0,1)", qMin)
	}
	return &Statistical{
		books:      make(map[int]*ExperienceBook),
		numDevices: numDevices,
		priorNorm:  1,
		qMin:       qMin,
	}, nil
}

// Name implements Strategy.
func (*Statistical) Name() string { return "statistical" }

// Unbiased implements Strategy.
func (*Statistical) Unbiased() bool { return true }

func (s *Statistical) book(edge int) *ExperienceBook {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.books[edge]
	if !ok {
		b = NewExperienceBook(s.numDevices, 0, 1)
		s.books[edge] = b
	}
	return b
}

// ObserveBatch implements Observer: each experience is recorded only on the
// edge that produced it, one book lock per run of same-edge observations.
func (s *Statistical) ObserveBatch(_ int, edges, devices []int, norms [][]float64) {
	for lo := 0; lo < len(edges); {
		hi := lo + 1
		for hi < len(edges) && edges[hi] == edges[lo] {
			hi++
		}
		s.book(edges[lo]).ObserveMany(devices[lo:hi], norms[lo:hi])
		lo = hi
	}
}

// CloudRound implements Observer.
func (s *Statistical) CloudRound(t int) {
	s.mu.Lock()
	books := make([]*ExperienceBook, 0, len(s.books))
	for _, edge := range det.SortedKeys(s.books) {
		books = append(books, s.books[edge])
	}
	s.mu.Unlock()
	for _, b := range books {
		b.CloudRound(t)
	}
}

// ProbabilitiesInto implements Strategy: q ∝ last observed window-average
// norm at this edge (Eq. 13 with plug-in estimates, reported as
// ctx.Estimates), clipped to [qMin, 1] and scaled to the capacity. Devices the
// edge has never trained score the prior.
func (s *Statistical) ProbabilitiesInto(ctx *EdgeContext, dst []float64) []float64 {
	b := s.book(ctx.Edge)
	scores := ensureLen(ctx.Scratch, len(ctx.Members))
	ctx.Scratch, ctx.Estimates, ctx.Floor = scores, scores, s.qMin
	for i, m := range ctx.Members {
		scores[i] = b.LastAverage(m, s.priorNorm)
	}
	return capProbabilitiesInto(dst, scores, ctx.Capacity, s.qMin)
}
