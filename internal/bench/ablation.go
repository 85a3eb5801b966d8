package bench

import (
	"fmt"
	"io"

	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/sampling"
)

// AblationResult is one design-choice comparison: variant name → final
// accuracy (averaged over cfg.Runs) and time-to-target.
type AblationResult struct {
	Name     string
	Variants []AblationVariant
}

// AblationVariant is one cell of an ablation.
type AblationVariant struct {
	Label         string
	FinalAccuracy float64
	TimeToTarget  int
	Reached       bool
}

// RunAblations executes the DESIGN.md §4 ablation suite on one config:
// aggregation rule, transfer-function smoothing, UCB discount and estimator
// locality.
func RunAblations(cfg Config) ([]AblationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type variant struct {
		label string
		strat func() (sampling.Strategy, error)
		agg   hfl.Aggregation
	}
	machStrat := func(mutate func(*sampling.MACHConfig)) func() (sampling.Strategy, error) {
		return func() (sampling.Strategy, error) {
			mc := cfg.MACH
			if mutate != nil {
				mutate(&mc)
			}
			return sampling.NewMACH(cfg.Devices, mc)
		}
	}
	suites := []struct {
		name     string
		variants []variant
	}{
		{
			name: "aggregation (MACH sampling)",
			variants: []variant{
				{"plain FedAvg", machStrat(nil), hfl.AggPlain},
				{"inverse-update Eq.5", machStrat(nil), hfl.AggInverseUpdate},
				{"literal Eq.5", machStrat(nil), hfl.AggLiteralEq5},
			},
		},
		{
			name: "transfer function",
			variants: []variant{
				{"smoothed Eq.17", machStrat(nil), hfl.AggPlain},
				{"raw Eq.13", machStrat(func(m *sampling.MACHConfig) { m.RawEq13 = true }), hfl.AggPlain},
			},
		},
		{
			name: "UCB discount",
			variants: []variant{
				{"literal all-time max", machStrat(func(m *sampling.MACHConfig) { m.Discount = 1 }), hfl.AggPlain},
				{"discounted max", machStrat(func(m *sampling.MACHConfig) { m.Discount = 0.9 }), hfl.AggPlain},
			},
		},
		{
			name: "estimator locality",
			variants: []variant{
				{"device-side UCB (MACH)", machStrat(nil), hfl.AggPlain},
				{"edge-side last-obs (SS)", func() (sampling.Strategy, error) {
					return sampling.NewStatistical(cfg.Devices, cfg.MACH.QMin)
				}, hfl.AggPlain},
			},
		},
	}

	var out []AblationResult
	for _, suite := range suites {
		res := AblationResult{Name: suite.name}
		for _, v := range suite.variants {
			av, err := runAblationVariant(cfg, v.strat, v.agg)
			if err != nil {
				return nil, fmt.Errorf("bench: ablation %q / %q: %w", suite.name, v.label, err)
			}
			av.Label = v.label
			res.Variants = append(res.Variants, av)
		}
		out = append(out, res)
	}
	return out, nil
}

func runAblationVariant(cfg Config, mkStrat func() (sampling.Strategy, error), agg hfl.Aggregation) (AblationVariant, error) {
	var results []*hfl.Result
	for run := 0; run < cfg.Runs; run++ {
		env, err := cfg.BuildEnvironment(run)
		if err != nil {
			return AblationVariant{}, err
		}
		strat, err := mkStrat()
		if err != nil {
			return AblationVariant{}, err
		}
		hcfg := cfg.HFLConfig(run)
		hcfg.Aggregation = agg
		eng, err := hfl.New(hcfg, cfg.Arch(), env.DeviceData, env.Test, env.Schedule, strat)
		if err != nil {
			return AblationVariant{}, err
		}
		res, err := eng.Run()
		if err != nil {
			return AblationVariant{}, err
		}
		results = append(results, res)
	}
	// Average the final accuracies and use the first run's target crossing
	// (ablation cells need a cheap summary, not a full averaged curve).
	av := AblationVariant{}
	for _, r := range results {
		av.FinalAccuracy += r.History.FinalAccuracy() / float64(len(results))
	}
	if step, ok := results[0].History.TimeToAccuracy(cfg.TargetAccuracy); ok {
		av.TimeToTarget, av.Reached = step, true
	} else {
		av.TimeToTarget = cfg.Steps
	}
	return av, nil
}

// RenderAblations writes the suite as text tables.
func RenderAblations(w io.Writer, results []AblationResult) error {
	for _, r := range results {
		if _, err := fmt.Fprintf(w, "Ablation: %s\n", r.Name); err != nil {
			return err
		}
		for _, v := range r.Variants {
			mark := ""
			if !v.Reached {
				mark = " (target not reached)"
			}
			if _, err := fmt.Fprintf(w, "  %-26s final acc %.4f  time-to-target %d%s\n",
				v.Label, v.FinalAccuracy, v.TimeToTarget, mark); err != nil {
				return err
			}
		}
	}
	return nil
}
