package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"

	"github.com/mach-fl/mach/internal/hfl"
	runmetrics "github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
)

// episode is one full pass of a workload — set-up from the seed, then one
// synchronous Engine.Run / Cloud.Run call — and what the harness observed
// around it. Episodes of one invocation share the seed, so their outputs
// must be bit-identical; their timings are the samples medians are taken
// over.
type episode struct {
	setupS   float64 // inputs + engine / cluster bring-up, up to the Run call
	runWallS float64 // wall of the Run call
	cpuS     float64 // user+sys CPU of the process over the Run call
	steps    int     // steps completed (0 when Run failed)
	updates  int64   // device updates: TotalSampled, or DeviceUploads over fed

	mallocs    uint64 // MemStats deltas over the Run call
	allocBytes uint64
	gcCycles   uint32
	gcCPUS     float64
	heapSysMB  float64

	history *runmetrics.History
	global  []float64
	comm    hfl.CommStats

	// Traced episodes only.
	stepNS     []int64 // harness step spans (in-process workloads)
	snap       *telemetry.Snapshot
	snapshotMS float64
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// gcCPUSeconds is the CPU time the runtime has spent on garbage collection.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// gauge is the harness's reading of the process counters at one instant.
type gauge struct {
	cpuS, gcCPUS float64
	mem          runtime.MemStats
}

func readGauge() (gauge, error) {
	var g gauge
	var err error
	runtime.ReadMemStats(&g.mem)
	g.gcCPUS = gcCPUSeconds()
	g.cpuS, err = cpuSeconds()
	return g, err
}

// prepared is a workload set up from the seed and ready for its Run call.
type prepared struct {
	setupS float64
	// run makes the one synchronous Run call, recording step spans under
	// parent, and fills the episode's outputs.
	run func(ep *episode, parent int) error
	// close releases what set-up acquired (the fed cluster).
	close func() error
}

// setUp builds the world from the seed and the engine or cluster on it: the
// part of an episode that setup_s times. tel, when non-nil, is attached
// through the public SetTelemetry of every component, and rec then records
// the harness's own spans.
func (w *workload) setUp(seed int64, tel *telemetry.Telemetry, rec *recorder) (*prepared, error) {
	runtime.GC() // the previous world is garbage; do not bill it here
	p := &prepared{close: func() error { return nil }}
	setup := rec.start("setup", -1)
	start := telemetry.WallNow()
	in, err := w.buildInputs(seed, rec, setup)
	if err != nil {
		return nil, err
	}
	if w.hosts > 0 {
		sp := rec.start("setup.cluster", setup)
		cl, err := w.buildCluster(seed, in, tel)
		if err != nil {
			return nil, fmt.Errorf("bring up cluster: %w", err)
		}
		rec.end(sp)
		p.close = cl.close
		p.run = func(ep *episode, _ int) error {
			hist, err := cl.cloud.Run()
			if err != nil {
				return err
			}
			ep.history, ep.steps = hist, w.cfg.Steps
			ep.global = cl.cloud.GlobalParams()
			if ep.comm, err = cl.cloud.CommStats(); err != nil {
				return err
			}
			ep.updates = ep.comm.DeviceUploads
			return nil
		}
	} else {
		sp := rec.start("setup.engine", setup)
		strat, err := sampling.NewMACH(w.cfg.Devices, w.cfg.MACH)
		if err != nil {
			return nil, err
		}
		eng, err := hfl.New(w.engineConfig(seed), w.cfg.Arch(), in.parts, in.test, in.src, strat)
		if err != nil {
			return nil, fmt.Errorf("build engine: %w", err)
		}
		eng.SetTelemetry(tel)
		rec.end(sp)
		p.run = func(ep *episode, parent int) error {
			var opts []hfl.RunOption
			if rec != nil {
				// Step spans end at the step hook; the cloud reduce and
				// evaluation that follow a step end at the eval hook. A
				// cloud round that is not evaluated has no boundary of its
				// own and is billed to the next step span.
				edge := rec.now()
				opts = append(opts,
					hfl.WithStepHook(func(int, int) {
						now := rec.now()
						rec.add("step", parent, edge, now)
						ep.stepNS = append(ep.stepNS, now-edge)
						edge = now
					}),
					hfl.WithEvalHook(func(int, float64, float64) {
						now := rec.now()
						rec.add("cloud_eval", parent, edge, now)
						edge = now
					}))
			}
			res, err := eng.Run(opts...)
			if err != nil {
				return err
			}
			ep.history, ep.steps = res.History, res.StepsRun
			ep.global = eng.GlobalParams()
			ep.comm, ep.updates = res.Comm, int64(res.TotalSampled)
			return nil
		}
	}
	p.setupS = telemetry.WallSince(start).Seconds()
	rec.end(setup)
	return p, nil
}

// setupOnly sets the workload up and tears it down again without running
// it: one more setup_s sample at a fraction of an episode's cost.
func (w *workload) setupOnly(seed int64) (float64, error) {
	p, err := w.setUp(seed, nil, nil)
	if err != nil {
		return 0, err
	}
	return p.setupS, p.close()
}

// runEpisode sets the workload up and makes the one Run call. A Run error is
// returned with the episode (steps = 0) so the caller can account for it; a
// nil episode means set-up itself failed.
func (w *workload) runEpisode(seed int64, tel *telemetry.Telemetry, rec *recorder) (ep *episode, err error) {
	p, err := w.setUp(seed, tel, rec)
	if err != nil {
		return nil, err
	}
	defer func() {
		if downErr := p.close(); downErr != nil && err == nil {
			err = fmt.Errorf("tear down: %w", downErr)
		}
	}()
	ep = &episode{setupS: p.setupS}

	before, err := readGauge()
	if err != nil {
		return nil, err
	}
	runSpan := rec.start("run", -1)
	start := telemetry.WallNow()
	runErr := p.run(ep, runSpan)
	ep.runWallS = telemetry.WallSince(start).Seconds()
	rec.end(runSpan)
	after, err := readGauge()
	if err != nil {
		return nil, err
	}
	ep.cpuS = after.cpuS - before.cpuS
	ep.gcCPUS = after.gcCPUS - before.gcCPUS
	ep.mallocs = after.mem.Mallocs - before.mem.Mallocs
	ep.allocBytes = after.mem.TotalAlloc - before.mem.TotalAlloc
	ep.gcCycles = after.mem.NumGC - before.mem.NumGC
	ep.heapSysMB = float64(after.mem.HeapSys) / (1 << 20)
	if tel != nil {
		start = telemetry.WallNow()
		ep.snap = tel.Snapshot()
		ep.snapshotMS = telemetry.WallSince(start).Seconds() * 1e3
	}
	if runErr != nil {
		ep.steps = 0
		return ep, fmt.Errorf("run: %w", runErr)
	}
	return ep, nil
}

// sameOutputs reports whether two episodes produced Float64bits-identical
// evaluation histories and final global parameters and the same number of
// device updates — the repo's determinism contract.
func sameOutputs(a, b *episode) bool {
	pa, pb := a.history.Points, b.history.Points
	if len(pa) != len(pb) || a.updates != b.updates {
		return false
	}
	evalA, evalB := make([]float64, 0, 2*len(pa)), make([]float64, 0, 2*len(pa))
	for i := range pa {
		if pa[i].Step != pb[i].Step {
			return false
		}
		evalA = append(evalA, pa[i].Accuracy, pa[i].Loss)
		evalB = append(evalB, pb[i].Accuracy, pb[i].Loss)
	}
	return sameBits(evalA, evalB) && sameBits(a.global, b.global)
}
