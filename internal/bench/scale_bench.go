package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/parallel"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
)

// ScaleCell is one population shape of the scale benchmark.
type ScaleCell struct {
	Devices int `json:"devices"`
	Edges   int `json:"edges"`
	// SkipNaive omits the cell's naive baseline row. The naive control
	// plane rescans every device per edge — O(Edges·Devices) per step —
	// which at the million-device cell would be ~10^10 membership probes
	// per step; the indexed and sharded rows still cross-check each other.
	SkipNaive bool `json:"skip_naive,omitempty"`
	// StreamOnly omits every dense-mobility row of the cell: only the
	// streaming StepSource rows run. This is how the long-horizon headline
	// cell stays feasible — a dense Schedule is Steps×Devices ints, which
	// at 1M devices × 200 steps is ~1.6 GB of resident attachment matrix,
	// while the streaming window holds O(Devices) regardless of horizon.
	StreamOnly bool `json:"stream_only,omitempty"`
	// Steps, when positive, overrides the config-level measured step count
	// for this cell (warm-up is unchanged). Used by the long-horizon
	// streaming cell, whose point is the horizon itself.
	Steps int `json:"steps,omitempty"`
}

// ScaleConfig parameterizes `machbench -exp scale`: a sampling-only workload
// that runs the per-step control plane — membership, MACH probabilities,
// sampling coins, experience updating — with gradient norms drawn from a
// seeded synthetic generator instead of NN training, so the numbers isolate
// control-plane throughput from the math kernels.
type ScaleConfig struct {
	// Cells are the (devices, edges) shapes measured; each gets a naive
	// baseline row (pre-index control plane: per-edge MembersAt rescans,
	// fresh RNGs and allocating sampling) and an indexed row (membership
	// index, pooled decide state, in-place sampling, parallel decide).
	Cells []ScaleCell `json:"cells"`
	// Steps is the measured step count; WarmupSteps run first so pooled
	// buffers reach steady state before allocation counters start.
	Steps       int `json:"steps"`
	WarmupSteps int `json:"warmup_steps"`
	// CloudInterval is T_g, the experience-folding period (Algorithm 2).
	CloudInterval int `json:"cloud_interval"`
	// StayProb is the per-step edge stay probability of the Markov mobility
	// model; 1-StayProb is the expected fraction of devices the index's
	// delta path must repair each step.
	StayProb float64 `json:"stay_prob"`
	// Participation sets the per-edge capacity K_n =
	// Participation·Devices/Edges, exactly as in the training engine.
	Participation float64 `json:"participation"`
	// Workers bounds the parallel decide of the indexed rows
	// (0 = GOMAXPROCS). The naive baseline is serial, as the pre-index
	// engine was.
	Workers int   `json:"workers"`
	Seed    int64 `json:"seed"`
	// Shards, when non-empty, adds one sharded-control-plane row per entry
	// and cell: the edge range splits into that many shard goroutines, each
	// owning a range-scoped member index and deciding its edges serially
	// with per-shard buffered observations, merged at a step barrier in
	// shard order (the in-process actor plane of DESIGN.md §11). Sampled
	// counts must match the indexed mode exactly; the harness enforces it.
	Shards []int `json:"shards,omitempty"`
}

// ScaleBenchPreset is the recorded sweep of BENCH_scale.json: device
// populations 1k/10k/100k with proportional edge counts, an edge-count sweep
// at 10k devices, and a city-scale headline cell (100k devices × 3k edges —
// the Shanghai-Telecom trace the paper evaluates on has ~3k base stations)
// where the naive control plane's O(Edges·Devices) rescan dominates.
func ScaleBenchPreset() ScaleConfig {
	return ScaleConfig{
		Cells: []ScaleCell{
			{Devices: 1_000, Edges: 10},
			{Devices: 10_000, Edges: 10},
			{Devices: 10_000, Edges: 100},
			{Devices: 10_000, Edges: 1_000},
			{Devices: 100_000, Edges: 1_000},
			{Devices: 100_000, Edges: 3_000},
			{Devices: 1_000_000, Edges: 10_000, SkipNaive: true},
			// The long-horizon headline: 200 measured steps at the
			// million-device shape. Dense mobility would need a
			// ~1.6 GB schedule matrix for this cell; only the streaming
			// O(Devices) window runs it.
			{Devices: 1_000_000, Edges: 10_000, SkipNaive: true, StreamOnly: true, Steps: 200},
		},
		Steps:         30,
		WarmupSteps:   5,
		CloudInterval: 5,
		StayProb:      0.9,
		Participation: 0.1,
		Seed:          1,
		Shards:        []int{1, 4, 16},
	}
}

// ScaleBenchQuickPreset is a seconds-scale smoke configuration for CI.
func ScaleBenchQuickPreset() ScaleConfig {
	cfg := ScaleBenchPreset()
	cfg.Cells = []ScaleCell{{Devices: 500, Edges: 5}, {Devices: 2_000, Edges: 20}}
	cfg.Steps = 10
	cfg.WarmupSteps = 2
	cfg.Shards = []int{1, 2}
	return cfg
}

// Validate reports whether the configuration is usable.
func (c ScaleConfig) Validate() error {
	switch {
	case len(c.Cells) == 0:
		return fmt.Errorf("bench: scale config has no cells")
	case c.Steps <= 0 || c.WarmupSteps < 0:
		return fmt.Errorf("bench: scale steps %d/%d invalid", c.Steps, c.WarmupSteps)
	case c.CloudInterval <= 0:
		return fmt.Errorf("bench: scale cloud interval %d must be positive", c.CloudInterval)
	case c.StayProb < 0 || c.StayProb > 1:
		return fmt.Errorf("bench: scale stay probability %v outside [0,1]", c.StayProb)
	case c.Participation <= 0 || c.Participation > 1:
		return fmt.Errorf("bench: scale participation %v outside (0,1]", c.Participation)
	case c.Workers < 0:
		return fmt.Errorf("bench: scale workers %d negative", c.Workers)
	}
	for _, cell := range c.Cells {
		if cell.Devices <= 0 || cell.Edges <= 0 {
			return fmt.Errorf("bench: scale cell %d devices × %d edges invalid", cell.Devices, cell.Edges)
		}
		if cell.Steps < 0 {
			return fmt.Errorf("bench: scale cell %d×%d step override %d negative", cell.Devices, cell.Edges, cell.Steps)
		}
	}
	for _, s := range c.Shards {
		if s <= 0 {
			return fmt.Errorf("bench: scale shard count %d must be positive", s)
		}
	}
	return nil
}

func (c ScaleConfig) workers() int {
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// ScaleBenchRow is one (cell, mode) measurement.
type ScaleBenchRow struct {
	Devices int `json:"devices"`
	Edges   int `json:"edges"`
	// Mode is "naive" (pre-index serial control plane), "indexed"
	// (membership index + pooled in-place sampling + parallel decide) or
	// "sharded" (shard actors over range-scoped indexes with batched
	// observation merge).
	Mode string `json:"mode"`
	// Mobility is "dense" (materialized Steps×Devices Schedule matrix) or
	// "stream" (O(Devices) StepSource window advanced by move deltas). Both
	// replay identical attachments — the harness enforces equal sampled
	// counts across all rows of a cell, making this the dense-vs-streaming
	// bit-identity gate.
	Mobility string `json:"mobility"`
	// MobilityResidentBytes is the heap held by the mobility plane alone —
	// a GC'd HeapAlloc delta bracketing schedule/source construction. Dense
	// rows grow with Steps×Devices; streaming rows stay O(Devices).
	MobilityResidentBytes int64 `json:"mobility_resident_bytes"`
	// Shards is the shard count of a "sharded" row (0 otherwise).
	Shards        int     `json:"shards,omitempty"`
	StepsMeasured int     `json:"steps_measured"`
	WallNs        int64   `json:"wall_ns"`
	StepsPerSec   float64 `json:"steps_per_sec"`
	// NsPerDeviceDecision is WallNs / (steps × devices): the cost of
	// deciding one device's participation for one step, the headline
	// control-plane metric.
	NsPerDeviceDecision float64 `json:"ns_per_device_decision"`
	AllocsPerStep       float64 `json:"allocs_per_step"`
	BytesPerStep        float64 `json:"bytes_per_step"`
	// SampledPerStep is the mean number of devices sampled per step; naive
	// and indexed rows of a cell must agree exactly (checked by the
	// harness), since both replay the same RNG streams.
	SampledPerStep float64 `json:"sampled_per_step"`
	// SpeedupVsNaive is the cell's naive NsPerDeviceDecision over this
	// row's (1 for the naive row itself).
	SpeedupVsNaive float64 `json:"speedup_vs_naive"`
}

// ScaleBenchResult is the payload of BENCH_scale.json.
type ScaleBenchResult struct {
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	NumCPU     int             `json:"num_cpu"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Config     ScaleConfig     `json:"config"`
	Rows       []ScaleBenchRow `json:"rows"`
	// Profiles names the pprof files captured with this run, if any.
	Profiles *ProfileMeta `json:"profiles,omitempty"`
}

// synthNorm is the seeded synthetic gradient-norm generator: a hash of
// (seed, step, device) mapped into [0.5, 1.5). It stands in for the squared
// norms NN training would produce, with per-device, per-step variation and
// no training cost.
func synthNorm(seed int64, t, m int) float64 {
	h := uint64(det.Mix(seed, int64(t)+17, int64(m)+1_000_003))
	return 0.5 + float64(h>>11)/float64(1<<53)
}

// scaleObs buffers (edge, device, norm) observations — one synthetic norm per
// sampled device — until its owner flushes them into the strategy as one
// batch.
type scaleObs struct {
	edges, devs []int
	normStore   []float64   // flat backing for norms, one per record
	norms       [][]float64 // subslices of normStore, built at flush
}

func (o *scaleObs) add(n, m int, norm float64) {
	o.edges = append(o.edges, n)
	o.devs = append(o.devs, m)
	o.normStore = append(o.normStore, norm)
}

// flush delivers the buffered observations as one ObserveBatch (one book
// lock) and empties the buffer.
func (o *scaleObs) flush(strat *sampling.MACH, t int) {
	if len(o.devs) == 0 {
		return
	}
	o.norms = o.norms[:0]
	for i := range o.normStore {
		o.norms = append(o.norms, o.normStore[i:i+1])
	}
	strat.ObserveBatch(t, o.edges, o.devs, o.norms)
	o.edges, o.devs, o.normStore = o.edges[:0], o.devs[:0], o.normStore[:0]
}

// scaleDecideState is one edge's pooled control-plane machinery in the
// indexed mode, mirroring hfl's edgeDecideState.
type scaleDecideState struct {
	ctx     sampling.EdgeContext
	probs   []float64
	obs     scaleObs
	sampled int64 // devices sampled by this edge in the current step
}

// scaleEngine runs the sampling-only control plane over a synthetic Markov
// mobility plane: per step it computes MACH probabilities for every edge,
// draws the sampling coins in member order from per-edge det.EdgeCoin streams
// (the engine's own), and feeds synthetic gradient norms of the sampled
// devices back into the experience book. No models exist; everything measured is control plane.
// Every mode runs the same decideEdge; they differ in where an edge's members
// come from, whether its state is pooled, and when observations are flushed.
//
// The mobility plane is a mobility.StepSource either way: streaming rows use
// the MarkovSource window directly, dense rows Materialize the same source
// into a Steps×Devices Schedule and walk it through the adapter. Both
// trajectories are therefore identical, which is what lets the harness use
// cross-mode sampled-count equality as the dense-vs-streaming bit-identity
// gate.
type scaleEngine struct {
	cfg   ScaleConfig
	sched *mobility.Schedule // dense rows only; nil when streaming

	// Mobility window threaded into the member indexes, as in hfl.Engine.
	win         *mobility.Window
	stepMoves   []mobility.Move
	stepRebuilt bool
	// mobilityBytes is the GC'd HeapAlloc delta around schedule/source
	// construction: what the mobility plane alone keeps resident.
	mobilityBytes int64

	index    *mobility.MemberIndex
	strat    *sampling.MACH
	capacity float64
	decide   []scaleDecideState
	shards   []*scaleShard // sharded mode only
}

// scaleShard is one control-plane shard of the sharded mode: a contiguous
// edge range with its range-scoped member index and the step's buffered
// observations, merged at the barrier in shard (= edge) order. It mirrors
// hfl's shardState at bench scale.
type scaleShard struct {
	lo, hi  int
	index   *mobility.MemberIndex
	sampled int64
	obs     scaleObs
}

func newScaleEngine(cfg ScaleConfig, cell ScaleCell, steps int, streaming bool) (*scaleEngine, error) {
	// Bracket mobility-plane construction with GC'd MemStats snapshots so
	// the row records what the schedule (dense) or window (streaming) alone
	// keeps resident. The second GC also collects the drained MarkovSource
	// in the dense case, leaving only the matrix in the delta.
	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	var (
		sched *mobility.Schedule
		src   mobility.StepSource
	)
	ms, err := mobility.NewMarkovSource(cfg.Seed, cell.Edges, cell.Devices, steps, cfg.StayProb)
	if err != nil {
		return nil, err
	}
	if streaming {
		src = ms
	} else {
		sched, err = mobility.Materialize(ms)
		if err != nil {
			return nil, err
		}
		src = sched
		ms = nil
	}
	runtime.GC()
	runtime.ReadMemStats(&msAfter)
	mobilityBytes := int64(msAfter.HeapAlloc) - int64(msBefore.HeapAlloc)
	if mobilityBytes < 0 {
		mobilityBytes = 0
	}
	strat, err := sampling.NewMACH(cell.Devices, sampling.DefaultMACHConfig())
	if err != nil {
		return nil, err
	}
	// Pre-warm every device with one folded observation, as a long-running
	// training would have: the measured window then exercises the steady
	// state (estimates from history, experience buffers at capacity) instead
	// of the cold-start transient of first-time buffer growth. Both modes
	// pre-warm identically, so their RNG-replay equality is unaffected.
	warm := make([]float64, 4) // window-sized: caps cover repeat samples
	edge, dev, batch := []int{0}, []int{0}, [][]float64{warm}
	for m := 0; m < cell.Devices; m++ {
		for i := range warm {
			warm[i] = synthNorm(cfg.Seed, -1-i, m)
		}
		dev[0] = m
		strat.ObserveBatch(0, edge, dev, batch)
	}
	strat.CloudRound(0)
	eng := &scaleEngine{
		cfg:           cfg,
		sched:         sched,
		win:           mobility.NewWindow(src),
		mobilityBytes: mobilityBytes,
		index:         mobility.NewMemberIndexWindow(0, cell.Edges),
		strat:         strat,
		capacity:      cfg.Participation * float64(cell.Devices) / float64(cell.Edges),
		decide:        make([]scaleDecideState, cell.Edges),
	}
	// Pre-size per-edge buffers past any member count the drift will
	// plausibly reach (binomial mean + 8σ), so the measured window never
	// regrows them as edges hit new population maxima.
	mean := float64(cell.Devices) / float64(cell.Edges)
	capHint := int(mean+8*math.Sqrt(mean)) + 16
	for n := range eng.decide {
		st := &eng.decide[n]
		st.probs = make([]float64, 0, capHint)
		st.ctx.Scratch = make([]float64, 0, capHint)
	}
	return eng, nil
}

// advance positions the engine's mobility window at step t and leaves
// (stepMoves, stepRebuilt) for the member indexes' AdvanceWith repair. Called
// once per step from the driver goroutine, before any shard reads the window.
func (e *scaleEngine) advance(t int) {
	moves, rebuilt, err := e.win.Advance(t)
	if err != nil {
		// The harness always advances forward within the generated
		// horizon; an error here is a programming bug, not an input.
		panic(fmt.Sprintf("bench: scale step %d: %v", t, err))
	}
	e.stepMoves, e.stepRebuilt = moves, rebuilt
}

// buildShards splits the engine's edges into `shards` contiguous ranges,
// each with its own range-scoped window index. Called once per sharded
// measurement; the monolithic index stays unused in that mode.
func (e *scaleEngine) buildShards(shards int) {
	edges := len(e.decide)
	if shards > edges {
		shards = edges
	}
	e.shards = make([]*scaleShard, shards)
	for s := range e.shards {
		lo, hi := edges*s/shards, edges*(s+1)/shards
		e.shards[s] = &scaleShard{
			lo:    lo,
			hi:    hi,
			index: mobility.NewMemberIndexWindow(lo, hi),
		}
	}
}

// decideEdge is the benchmark's one per-edge decision (Algorithm 1, lines 3-5
// at bench scale): MACH probabilities for the members, the edge's coin stream
// drawn in member order, and one synthetic-norm observation per sampled device
// appended to obs. It returns the number of devices sampled. A device is a
// member of exactly one edge per step and its observation only moves its own
// future estimates, so when the caller flushes obs — per edge or at a step
// barrier — cannot change a same-step decision: every mode samples the same
// devices. tb, when non-nil, additionally records the decision for a trace.
func (e *scaleEngine) decideEdge(t, n int, members []int, st *scaleDecideState, obs *scaleObs, tb *telemetryTraceBuf) int64 {
	if len(members) == 0 {
		return 0
	}
	st.ctx.Step, st.ctx.Edge, st.ctx.Capacity, st.ctx.Members = t, n, e.capacity, members
	st.ctx.Estimates, st.ctx.Floor = nil, 0
	st.probs = e.strat.ProbabilitiesInto(&st.ctx, st.probs)
	if tb != nil {
		tb.members = append(tb.members[:0], members...)
		tb.estimates = append(tb.estimates[:0], st.ctx.Estimates...)
		tb.coins, tb.sampled = tb.coins[:0], tb.sampled[:0]
	}
	coin := det.Stream(det.EdgeCoin(e.cfg.Seed, t, n))
	sampled := int64(0)
	for i, m := range members {
		c := coin.Float64()
		if tb != nil {
			tb.coins = append(tb.coins, c)
		}
		if c >= st.probs[i] {
			continue
		}
		if tb != nil {
			tb.sampled = append(tb.sampled, m)
		}
		sampled++
		obs.add(n, m, synthNorm(e.cfg.Seed, t, m))
	}
	return sampled
}

// stepSharded runs one step of the sharded control plane: every shard
// advances its range index and decides its edges serially on its own
// goroutine into the shard's observation buffer; at the barrier the buffers
// flush into the experience book in shard order (one book lock per shard).
func (e *scaleEngine) stepSharded(t int) int64 {
	// The driver advances the shared mobility window once; the shard
	// goroutines then repair their range indexes from the read-only move
	// stream. Each shard scans the full stream but touches only members in
	// its own range — O(moves) scan, O(own moves) mutation.
	e.advance(t)
	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	for _, sh := range e.shards {
		go func() {
			defer wg.Done()
			sh.sampled = 0
			sh.index.AdvanceWith(t, e.win.Row(), e.stepMoves, e.stepRebuilt)
			for n := sh.lo; n < sh.hi; n++ {
				sh.sampled += e.decideEdge(t, n, sh.index.Members(n), &e.decide[n], &sh.obs, nil)
			}
		}()
	}
	wg.Wait()
	total := int64(0)
	for _, sh := range e.shards {
		total += sh.sampled
		sh.obs.flush(e.strat, t)
	}
	e.cloudRound(t)
	return total
}

// stepIndexed runs one step of the optimized control plane: one index
// advance, then a parallel decide over edges with pooled contexts, in-place
// probabilities and one observation flush per edge.
func (e *scaleEngine) stepIndexed(t, workers int) int64 {
	e.advance(t)
	e.index.AdvanceWith(t, e.win.Row(), e.stepMoves, e.stepRebuilt)
	parallel.ForEach(workers, len(e.decide), func(n int) {
		st := &e.decide[n]
		st.sampled = e.decideEdge(t, n, e.index.Members(n), st, &st.obs, nil)
		st.obs.flush(e.strat, t)
	})
	total := int64(0)
	for n := range e.decide {
		total += e.decide[n].sampled
	}
	e.cloudRound(t)
	return total
}

// stepNaive replays the pre-index control plane's structure: a serial loop
// over edges, a full MembersAt rescan per edge, and freshly allocated decide
// state — context, probabilities, estimates, observation buffers — every
// time. It is the baseline row of BENCH_scale.json and requires the dense
// schedule — MembersAt is exactly the random-access rescan streaming
// eliminates, so naive rows only exist in dense mobility mode.
func (e *scaleEngine) stepNaive(t int) int64 {
	total := int64(0)
	for n := 0; n < e.sched.Edges; n++ {
		var st scaleDecideState
		total += e.decideEdge(t, n, e.sched.MembersAt(t, n), &st, &st.obs, nil)
		st.obs.flush(e.strat, t)
	}
	e.cloudRound(t)
	return total
}

func (e *scaleEngine) cloudRound(t int) {
	if (t+1)%e.cfg.CloudInterval == 0 {
		e.strat.CloudRound(t + 1)
	}
}

// measureScaleCell runs one (cell, mode, mobility) measurement: warm-up
// steps grow every pooled buffer, then the measured window is timed between
// two MemStats snapshots. shards is consulted only by the "sharded" mode;
// mob is "dense" or "stream" and selects the mobility plane.
func measureScaleCell(cfg ScaleConfig, cell ScaleCell, mode, mob string, shards int) (ScaleBenchRow, int64, error) {
	totalSteps := cfg.WarmupSteps + cfg.Steps
	eng, err := newScaleEngine(cfg, cell, totalSteps, mob == "stream")
	if err != nil {
		return ScaleBenchRow{}, 0, err
	}
	if mode == "sharded" {
		eng.buildShards(shards)
	}
	workers := cfg.workers()
	step := func(t int) int64 {
		switch mode {
		case "naive":
			return eng.stepNaive(t)
		case "sharded":
			return eng.stepSharded(t)
		default:
			return eng.stepIndexed(t, workers)
		}
	}
	for t := 0; t < cfg.WarmupSteps; t++ {
		step(t)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := telemetry.WallNow()
	sampled := int64(0)
	for t := cfg.WarmupSteps; t < totalSteps; t++ {
		sampled += step(t)
	}
	wall := telemetry.WallSince(start)
	runtime.ReadMemStats(&after)
	row := ScaleBenchRow{
		Devices:               cell.Devices,
		Edges:                 cell.Edges,
		Mode:                  mode,
		Mobility:              mob,
		MobilityResidentBytes: eng.mobilityBytes,
		Shards:                len(eng.shards),
		StepsMeasured:         cfg.Steps,
		WallNs:                wall.Nanoseconds(),
		StepsPerSec:           float64(cfg.Steps) / wall.Seconds(),
		NsPerDeviceDecision:   float64(wall.Nanoseconds()) / (float64(cfg.Steps) * float64(cell.Devices)),
		AllocsPerStep:         float64(after.Mallocs-before.Mallocs) / float64(cfg.Steps),
		BytesPerStep:          float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Steps),
		SampledPerStep:        float64(sampled) / float64(cfg.Steps),
	}
	return row, sampled, nil
}

// RunScaleBench measures every cell in every mode: naive over the dense
// schedule (unless the cell skips it), indexed over dense and streaming
// mobility, and one streaming sharded row per configured shard count.
// Beyond timing, it is an end-to-end determinism check: all modes of a cell
// must sample exactly the same number of devices in the measured window,
// since they replay the same per-edge coin streams over the same
// attachments — the dense rows materialize the very MarkovSource the
// streaming rows consume, so the cross-mode equality doubles as the
// streaming-vs-dense bit-identity gate.
func RunScaleBench(cfg ScaleConfig) (*ScaleBenchResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &ScaleBenchResult{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config:     cfg,
	}
	for _, cell := range cfg.Cells {
		// A cell-level step override changes only this cell's horizon.
		ccfg := cfg
		if cell.Steps > 0 {
			ccfg.Steps = cell.Steps
		}
		refSampled, haveRef := int64(0), false
		check := func(mode string, sampled int64) error {
			if !haveRef {
				refSampled, haveRef = sampled, true
				return nil
			}
			if sampled != refSampled {
				return fmt.Errorf("bench: scale %d×%d: %s sampled %d devices, want %d — control planes diverged",
					cell.Devices, cell.Edges, mode, sampled, refSampled)
			}
			return nil
		}
		naiveNs := 0.0
		if !cell.SkipNaive && !cell.StreamOnly {
			naive, sampled, err := measureScaleCell(ccfg, cell, "naive", "dense", 0)
			if err != nil {
				return nil, fmt.Errorf("bench: scale %d×%d naive: %w", cell.Devices, cell.Edges, err)
			}
			if err := check("naive/dense", sampled); err != nil {
				return nil, err
			}
			naive.SpeedupVsNaive = 1
			naiveNs = naive.NsPerDeviceDecision
			res.Rows = append(res.Rows, naive)
		}
		speedup := func(row *ScaleBenchRow) {
			if naiveNs > 0 && row.NsPerDeviceDecision > 0 {
				row.SpeedupVsNaive = naiveNs / row.NsPerDeviceDecision
			}
		}
		mobilities := []string{"dense", "stream"}
		if cell.StreamOnly {
			mobilities = []string{"stream"}
		}
		for _, mob := range mobilities {
			indexed, sampled, err := measureScaleCell(ccfg, cell, "indexed", mob, 0)
			if err != nil {
				return nil, fmt.Errorf("bench: scale %d×%d indexed/%s: %w", cell.Devices, cell.Edges, mob, err)
			}
			if err := check("indexed/"+mob, sampled); err != nil {
				return nil, err
			}
			speedup(&indexed)
			res.Rows = append(res.Rows, indexed)
		}
		for _, shards := range cfg.Shards {
			row, sampled, err := measureScaleCell(ccfg, cell, "sharded", "stream", shards)
			if err != nil {
				return nil, fmt.Errorf("bench: scale %d×%d sharded/%d: %w", cell.Devices, cell.Edges, shards, err)
			}
			if err := check(fmt.Sprintf("sharded/%d/stream", shards), sampled); err != nil {
				return nil, err
			}
			speedup(&row)
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// WriteScaleBenchJSON writes the result as indented JSON.
func (r *ScaleBenchResult) WriteScaleBenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RenderScaleBench prints the result as a text table.
func RenderScaleBench(w io.Writer, r *ScaleBenchResult) error {
	if _, err := fmt.Fprintf(w, "Sampling control-plane scale benchmark — %s/%s, %d CPU (GOMAXPROCS=%d)\n",
		r.GOOS, r.GOARCH, r.NumCPU, r.GOMAXPROCS); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "config: steps=%d warmup=%d tg=%d stay=%.2f participation=%.2f workers=%d\n\n",
		r.Config.Steps, r.Config.WarmupSteps, r.Config.CloudInterval, r.Config.StayProb,
		r.Config.Participation, r.Config.workers()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%9s %6s %8s %7s %6s %10s %10s %12s %13s %14s %12s %9s\n",
		"devices", "edges", "mode", "mob", "steps", "mob-bytes", "steps/s", "ns/dev-dec", "allocs/step", "bytes/step", "sampled/step", "speedup"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		mode := row.Mode
		if row.Shards > 0 {
			mode = fmt.Sprintf("shard%d", row.Shards)
		}
		if _, err := fmt.Fprintf(w, "%9d %6d %8s %7s %6d %10s %10.1f %12.1f %13.1f %14.0f %12.1f %8.1fx\n",
			row.Devices, row.Edges, mode, row.Mobility, row.StepsMeasured,
			formatBytes(row.MobilityResidentBytes), row.StepsPerSec, row.NsPerDeviceDecision,
			row.AllocsPerStep, row.BytesPerStep, row.SampledPerStep, row.SpeedupVsNaive); err != nil {
			return err
		}
	}
	return nil
}

// formatBytes renders a byte count with a binary-prefix unit for the table.
func formatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
