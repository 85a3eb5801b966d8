// Custom sampler example: the sampling.Strategy interface is the extension
// point of the library. This example implements a "stickiness-aware" sampler
// that favors devices that have stayed in the same edge (cheap, stable
// uplinks) and runs it through the full HFL engine next to the built-ins.
//
//	go run ./examples/customsampler
package main

import (
	"fmt"
	"os"
	"sync"

	"github.com/mach-fl/mach/internal/bench"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/sampling"
)

// Sticky favors devices that keep appearing in the same edge: every step a
// device is seen again at the edge raises its score, and moving resets it.
// It needs no gradient information at all — only the membership stream.
type Sticky struct {
	mu       sync.Mutex
	lastEdge map[int]int
	streak   map[int]float64
}

var _ sampling.Strategy = (*Sticky)(nil)

// NewSticky returns the example strategy.
func NewSticky() *Sticky {
	return &Sticky{lastEdge: map[int]int{}, streak: map[int]float64{}}
}

// Name implements sampling.Strategy.
func (*Sticky) Name() string { return "sticky" }

// Unbiased implements sampling.Strategy: stickiness scores feed the engine's
// plain aggregation path like class-balance does.
func (*Sticky) Unbiased() bool { return false }

// ProbabilitiesInto implements sampling.Strategy: streak scores land in the
// caller's buffer and are scaled to the capacity in place.
func (s *Sticky) ProbabilitiesInto(ctx *sampling.EdgeContext, dst []float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst = dst[:0]
	total := 0.0
	for _, m := range ctx.Members {
		if last, ok := s.lastEdge[m]; ok && last == ctx.Edge {
			s.streak[m]++
		} else {
			s.streak[m] = 1
		}
		s.lastEdge[m] = ctx.Edge
		dst = append(dst, s.streak[m])
		total += s.streak[m]
	}
	for i, v := range dst {
		dst[i] = min(1, ctx.Capacity*v/total)
	}
	return dst
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "customsampler:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := bench.TaskPreset(bench.TaskMNIST, bench.ScaleCI)
	cfg.Steps = 100
	env, err := cfg.BuildEnvironment(0)
	if err != nil {
		return err
	}

	run := func(name string, strat sampling.Strategy) (float64, error) {
		eng, err := hfl.New(cfg.HFLConfig(0), cfg.Arch(), env.DeviceData, env.Test, env.Schedule, strat)
		if err != nil {
			return 0, err
		}
		res, err := eng.Run()
		if err != nil {
			return 0, err
		}
		return res.History.FinalAccuracy(), nil
	}

	sticky, err := run("sticky", NewSticky())
	if err != nil {
		return err
	}
	uniStrat, err := cfg.NewStrategy(bench.StratUniform)
	if err != nil {
		return err
	}
	uniform, err := run("uniform", uniStrat)
	if err != nil {
		return err
	}
	machStrat, err := cfg.NewStrategy(bench.StratMACH)
	if err != nil {
		return err
	}
	mach, err := run("mach", machStrat)
	if err != nil {
		return err
	}

	fmt.Printf("final accuracy after %d steps:\n", cfg.Steps)
	fmt.Printf("  sticky (custom)  %.3f\n", sticky)
	fmt.Printf("  uniform          %.3f\n", uniform)
	fmt.Printf("  mach             %.3f\n", mach)
	fmt.Println("\nthe three methods of sampling.Strategy are all a new sampler needs.")
	return nil
}
