// Bound example: evaluate the Theorem 1 convergence bound (Eq. 9) under
// different sampling strategies, numerically reproducing Remark 1/2 — the
// sampling strategy enters the bound only through Σ G²/q, each edge can
// minimize it independently, and the closed-form optimum beats uniform.
//
//	go run ./examples/bound
package main

import (
	"fmt"
	"math/rand"
	"os"

	"github.com/mach-fl/mach"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bound:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(5))
	const (
		edges    = 4
		perEdge  = 8
		capacity = 4.0 // K_n
		steps    = 100
	)

	// A heterogeneous population: per-device squared gradient-norm bounds
	// G²_m spread over an order of magnitude, as mid-training runs show.
	norms := make([][]float64, edges)
	for n := range norms {
		norms[n] = make([]float64, perEdge)
		for m := range norms[n] {
			norms[n][m] = 0.5 + rng.Float64()*rng.Float64()*20
		}
	}

	// MACH's own edge sampling (Eqs. 16-18), and with RawEq13 set the
	// paper's Eq. 13 unsmoothed, both capped to [QMin, 1].
	machCfg := mach.DefaultMACHConfig()
	rawCfg := machCfg
	rawCfg.RawEq13 = true
	strategies := []struct {
		name  string
		probs func(edge []float64) []float64
	}{
		{"uniform", func(edge []float64) []float64 {
			q := make([]float64, len(edge))
			for i := range q {
				q[i] = capacity / float64(len(edge))
			}
			return q
		}},
		{"paper Eq.13 (∝G²)", func(edge []float64) []float64 {
			return mach.EdgeSamplingInto(rawCfg, capacity, edge, nil)
		}},
		{"exact optimum (∝G)", func(edge []float64) []float64 {
			q := mach.OptimalProbabilities(capacity, edge)
			for i := range q {
				q[i] = min(max(q[i], machCfg.QMin), 1)
			}
			return q
		}},
		{"MACH Eq.16-18", func(edge []float64) []float64 {
			return mach.EdgeSamplingInto(machCfg, capacity, edge, nil)
		}},
	}

	params := mach.BoundParams{
		InitialGap:    2,
		L:             1,
		Gamma:         0.01,
		LocalEpochs:   10,
		CloudInterval: 5,
		Devices:       edges * perEdge,
	}

	fmt.Printf("%-22s %14s %14s\n", "strategy", "Σ G²/q per step", "Theorem 1 bound")
	for _, st := range strategies {
		perStep := 0.0
		for _, edge := range norms {
			perStep += mach.VarianceTerm(edge, st.probs(edge))
		}
		terms := make([]float64, steps)
		for t := range terms {
			terms[t] = perStep
		}
		bound, err := mach.Theorem1Bound(params, terms)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %14.2f %14.4f\n", st.name, perStep, bound)
	}
	fmt.Println("\nsmaller is better; the bound is monotone in Σ G²/q (Remark 1),")
	fmt.Println("and each edge minimizes its own term independently (Remark 2).")
	return nil
}
