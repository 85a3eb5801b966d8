package nn

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to params and leaves gradients untouched
	// (callers zero them at the start of the next step).
	Step(params []*Param)
	// LearningRate reports the current step size.
	LearningRate() float64
	// SetLearningRate changes the step size (the engine decays it at cloud
	// rounds).
	SetLearningRate(lr float64)
}

// SGD is plain stochastic gradient descent, exactly the local update rule of
// Eq. (4) in the paper: w ← w − γ·g(w, ξ). It keeps no state between steps
// (DESIGN.md §5: nothing a local update mutates outlives it).
type SGD struct {
	lr float64
}

var _ Optimizer = (*SGD)(nil)

// NewSGD returns an SGD optimizer with learning rate lr.
func NewSGD(lr float64) *SGD { return &SGD{lr: lr} }

// LearningRate implements Optimizer.
func (s *SGD) LearningRate() float64 { return s.lr }

// SetLearningRate implements Optimizer.
func (s *SGD) SetLearningRate(lr float64) { s.lr = lr }

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		p.Value.AxpyInPlace(-s.lr, p.Grad)
	}
}
