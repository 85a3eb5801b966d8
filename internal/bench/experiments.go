package bench

import (
	"fmt"

	"github.com/mach-fl/mach/internal/metrics"
)

// Fig3Result holds the time-to-accuracy curves of one task (one subplot of
// Figure 3).
type Fig3Result struct {
	Task       Task
	Comparison *Comparison
}

// RunFig3 regenerates one subplot of Figure 3: the accuracy curves of all
// five strategies on one task.
func RunFig3(cfg Config) (*Fig3Result, error) {
	cmp, err := RunComparison(cfg, AllStrategies())
	if err != nil {
		return nil, fmt.Errorf("bench: fig3 %s: %w", cfg.Task, err)
	}
	return &Fig3Result{Task: cfg.Task, Comparison: cmp}, nil
}

// SweepPoint is one x-axis cell of Figures 4/5: the swept value, each
// strategy's time-to-target, and MACH's saved percentage vs the best basic
// baseline.
type SweepPoint struct {
	Value        float64 // edge count (Fig 4) or participation (Fig 5)
	TimeToTarget map[string]int
	Reached      map[string]bool
	SavedPercent float64
}

// SweepResult is one subplot of Figure 4 or 5.
type SweepResult struct {
	Task   Task
	Label  string // swept quantity
	Points []SweepPoint
}

// RunEdgeSweep regenerates one subplot of Figure 4: the time step at which
// each strategy reaches the target accuracy, as the number of edges varies.
// The per-edge capacity K_n scales automatically with the edge count so
// total participation stays at cfg.Participation, matching the paper's
// protocol ("the edge channel capacity is adjusted to ensure approximately
// 50% device participation").
func RunEdgeSweep(cfg Config, edgeCounts []int) (*SweepResult, error) {
	out := &SweepResult{Task: cfg.Task, Label: "edges"}
	for _, edges := range edgeCounts {
		c := cfg
		c.Edges = edges
		cmp, err := RunComparison(c, AllStrategies())
		if err != nil {
			return nil, fmt.Errorf("bench: fig4 %s edges=%d: %w", cfg.Task, edges, err)
		}
		out.Points = append(out.Points, sweepPoint(float64(edges), cmp))
	}
	return out, nil
}

// RunParticipationSweep regenerates one subplot of Figure 5: time-to-target
// as the proportion of participating devices varies.
func RunParticipationSweep(cfg Config, proportions []float64) (*SweepResult, error) {
	out := &SweepResult{Task: cfg.Task, Label: "participation"}
	for _, p := range proportions {
		c := cfg
		c.Participation = p
		cmp, err := RunComparison(c, AllStrategies())
		if err != nil {
			return nil, fmt.Errorf("bench: fig5 %s p=%.2f: %w", cfg.Task, p, err)
		}
		out.Points = append(out.Points, sweepPoint(p, cmp))
	}
	return out, nil
}

func sweepPoint(value float64, cmp *Comparison) SweepPoint {
	pt := SweepPoint{
		Value:        value,
		TimeToTarget: map[string]int{},
		Reached:      map[string]bool{},
		SavedPercent: cmp.SavedPercent(Baselines()),
	}
	for _, r := range cmp.Results {
		pt.TimeToTarget[r.Strategy] = r.TimeToTarget
		pt.Reached[r.Strategy] = r.Reached
	}
	return pt
}

// Table1Row is one row of Table I: a task, a target level, a local-epoch
// multiplier, the steps each strategy needed, and MACH's saved percentage
// against the best baseline (underlined in the paper).
type Table1Row struct {
	Task         Task
	TargetLabel  string // "70% Target" or "Target"
	Target       float64
	EpochsLabel  string // "0.8I", "I", "1.2I"
	LocalEpochs  int
	Steps        map[string]int
	Reached      map[string]bool
	SavedPercent float64
}

// Table1Result holds the rows of Table I for one task.
type Table1Result struct {
	Task Task
	Rows []Table1Row
}

// RunTable1 regenerates Table I for one task: the strategies' time steps to
// the 70% and full targets under local updating epochs {0.8I, I, 1.2I}. One
// full curve per (strategy, epoch) cell serves both target levels.
func RunTable1(cfg Config) (*Table1Result, error) {
	strategies := []string{StratMACH, StratUniform, StratClassBalance, StratStatistical}
	epochCells := []struct {
		label string
		mul   float64
	}{
		{"0.8I", 0.8},
		{"I", 1.0},
		{"1.2I", 1.2},
	}
	targets := []struct {
		label  string
		target float64
	}{
		{"70% Target", 0.7 * cfg.TargetAccuracy},
		{"Target", cfg.TargetAccuracy},
	}

	out := &Table1Result{Task: cfg.Task}
	// One full curve per (epoch cell, strategy) serves both target levels.
	type cellCurves map[string]*StrategyResult
	curves := make([]cellCurves, len(epochCells))
	for i, ec := range epochCells {
		c := cfg
		c.LocalEpochs = int(float64(cfg.LocalEpochs)*ec.mul + 0.5)
		if c.LocalEpochs < 1 {
			c.LocalEpochs = 1
		}
		curves[i] = cellCurves{}
		for _, name := range strategies {
			res, err := RunStrategy(c, name)
			if err != nil {
				return nil, fmt.Errorf("bench: table1 %s %s %s: %w", cfg.Task, ec.label, name, err)
			}
			curves[i][name] = res
		}
	}
	for _, tl := range targets {
		for i, ec := range epochCells {
			localEpochs := int(float64(cfg.LocalEpochs)*ec.mul + 0.5)
			if localEpochs < 1 {
				localEpochs = 1
			}
			row := Table1Row{
				Task:        cfg.Task,
				TargetLabel: tl.label,
				Target:      tl.target,
				EpochsLabel: ec.label,
				LocalEpochs: localEpochs,
				Steps:       map[string]int{},
				Reached:     map[string]bool{},
			}
			var machStep int
			var baselineSteps []int
			for _, name := range strategies {
				res := curves[i][name]
				step, ok := res.History.TimeToAccuracy(tl.target)
				if !ok {
					step = cfg.Steps
				}
				row.Steps[name] = step
				row.Reached[name] = ok
				if name == StratMACH {
					machStep = step
				} else if ok {
					baselineSteps = append(baselineSteps, step)
				}
			}
			row.SavedPercent = metrics.SavedPercent(machStep, baselineSteps)
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}
