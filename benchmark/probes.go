package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/rpc"
	"runtime"
	"sort"
	"time"

	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/fed"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/parallel"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
	"github.com/mach-fl/mach/internal/tensor"
)

// Probes time direct calls into a layer's public functions at the workload's
// own shapes. Each sample repeats the call for at least prober.slice and a
// probe reports the median of probeSamples samples.
const probeSamples = 5

type prober struct {
	slice time.Duration
	rng   *rand.Rand
}

// nsPerCall returns the median time of one fn call in nanoseconds.
func (p *prober) nsPerCall(fn func()) float64 {
	start := telemetry.WallNow()
	fn() // warm-up; also sizes the repeat count
	once := telemetry.WallSince(start)
	n := 1
	if once < p.slice {
		n = int(p.slice/(once+1)) + 1
	}
	samples := make([]float64, probeSamples)
	for s := range samples {
		start = telemetry.WallNow()
		for i := 0; i < n; i++ {
			fn()
		}
		samples[s] = float64(telemetry.WallSince(start).Nanoseconds()) / float64(n)
	}
	return median(samples)
}

// allocsPerCall counts heap allocations of one steady-state fn call.
func allocsPerCall(fn func()) float64 {
	const n = 20
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func (p *prober) randn32(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(p.rng.NormFloat64())
	}
	return v
}

func (p *prober) tensor(shape ...int) *tensor.Tensor {
	return tensor.Randn(p.rng, 1, shape...)
}

// gemm is one product's operand sizes: (m×k)·(k×n).
type gemm struct{ m, k, n int }

// kernelShapes lists the products one minibatch of the workload's model runs
// under each kernel form, and its convolution geometries. It mirrors how
// nn.Dense and nn.Conv2D call the kernels (forward, weight gradient, input
// gradient), for the architecture bench.Config.Arch builds.
func (w *workload) kernelShapes() (plain, transA, transB []gemm, geoms []tensor.ConvGeom) {
	c := w.cfg
	b := c.BatchSize
	dense := func(in, out int) {
		transB = append(transB, gemm{b, in, out}) // forward x·Wᵀ
		transA = append(transA, gemm{out, b, in}) // dW = gradᵀ·x
		plain = append(plain, gemm{b, out, in})   // dX = grad·W
	}
	if c.Model == "mlp" {
		dense(c.ImageSize*c.ImageSize, 32)
		dense(32, 10)
		return
	}
	cc := nn.MNISTCNNConfig(c.ImageSize, c.ImageSize)
	inC, h, wd := cc.InC, cc.InH, cc.InW
	for _, cs := range cc.Convs {
		g := tensor.ConvGeom{InC: inC, InH: h, InW: wd, K: cs.K, Stride: 1, Pad: cs.Pad}
		ckk, sp := inC*cs.K*cs.K, g.OutH()*g.OutW()
		plain = append(plain, gemm{cs.OutC, ckk, sp})   // forward W·cols
		transB = append(transB, gemm{cs.OutC, sp, ckk}) // dW = g·colsᵀ
		transA = append(transA, gemm{ckk, cs.OutC, sp}) // dcols = Wᵀ·g
		geoms = append(geoms, g)
		inC, h, wd = cs.OutC, g.OutH(), g.OutW()
		if cs.Pool {
			h, wd = h/2, wd/2
		}
	}
	in := inC * h * wd
	for _, width := range cc.Hidden {
		dense(in, width)
		in = width
	}
	dense(in, cc.Classes)
	return
}

// gflops times one pass over every shape and returns achieved GFLOP/s
// (2·m·k·n operations per product).
func (p *prober) gflops(shapes []gemm, pass func()) float64 {
	ops := 0.0
	for _, s := range shapes {
		ops += 2 * float64(s.m) * float64(s.k) * float64(s.n)
	}
	return ops / p.nsPerCall(pass)
}

// probeTensor times the six GEMM forms and the four im2col/col2im kernels.
func (p *prober) probeTensor(w *workload, out map[string]float64) {
	plain, transA, transB, geoms := w.kernelShapes()

	type ops64 struct{ dst, a, b *tensor.Tensor }
	type ops32 struct{ dst, a, b []float32 }
	var p64, a64, b64 []ops64
	var p32, a32, b32 []ops32
	for _, s := range plain {
		p64 = append(p64, ops64{tensor.New(s.m, s.n), p.tensor(s.m, s.k), p.tensor(s.k, s.n)})
		p32 = append(p32, ops32{make([]float32, s.m*s.n), p.randn32(s.m * s.k), p.randn32(s.k * s.n)})
	}
	for _, s := range transA { // aᵀ·b with a k×m, b k×n
		a64 = append(a64, ops64{tensor.New(s.m, s.n), p.tensor(s.k, s.m), p.tensor(s.k, s.n)})
		a32 = append(a32, ops32{make([]float32, s.m*s.n), p.randn32(s.k * s.m), p.randn32(s.k * s.n)})
	}
	for _, s := range transB { // a·bᵀ with a m×k, b n×k
		b64 = append(b64, ops64{tensor.New(s.m, s.n), p.tensor(s.m, s.k), p.tensor(s.n, s.k)})
		b32 = append(b32, ops32{make([]float32, s.m*s.n), p.randn32(s.m * s.k), p.randn32(s.n * s.k)})
	}
	out["tensor.gemm_f64_gflops"] = p.gflops(plain, func() {
		for _, o := range p64 {
			tensor.MatMulInto(o.dst, o.a, o.b)
		}
	})
	out["tensor.gemm_transA_f64_gflops"] = p.gflops(transA, func() {
		for _, o := range a64 {
			tensor.MatMulTransAInto(o.dst, o.a, o.b)
		}
	})
	out["tensor.gemm_transB_f64_gflops"] = p.gflops(transB, func() {
		for _, o := range b64 {
			tensor.MatMulTransBInto(o.dst, o.a, o.b)
		}
	})
	out["tensor.gemm_f32_gflops"] = p.gflops(plain, func() {
		for i, o := range p32 {
			tensor.MatMul32Into(o.dst, o.a, o.b, plain[i].m, plain[i].k, plain[i].n)
		}
	})
	out["tensor.gemm_transA_f32_gflops"] = p.gflops(transA, func() {
		for i, o := range a32 {
			// The kernel accumulates; the destination grows without bound
			// over the probe unless it is cleared like the lane clears its
			// gradient buffer.
			clear(o.dst)
			tensor.MatMulTransA32Acc(o.dst, o.a, o.b, transA[i].k, transA[i].m, transA[i].n)
		}
	})
	out["tensor.gemm_transB_f32_gflops"] = p.gflops(transB, func() {
		for i, o := range b32 {
			tensor.MatMulTransB32Into(o.dst, o.a, o.b, transB[i].m, transB[i].k, transB[i].n)
		}
	})

	// im2col/col2im: one image through every conv geometry. An MLP has none
	// and reports 0.
	for _, k := range []string{"tensor.im2col_f64_ns", "tensor.col2im_f64_ns", "tensor.im2col_f32_ns", "tensor.col2im_f32_ns"} {
		out[k] = 0
	}
	if len(geoms) == 0 {
		return
	}
	type conv struct {
		g            tensor.ConvGeom
		img, cols    *tensor.Tensor
		img32, col32 []float32
	}
	var convs []conv
	for _, g := range geoms {
		rows, sp := g.InC*g.K*g.K, g.OutH()*g.OutW()
		convs = append(convs, conv{g, p.tensor(g.InC, g.InH, g.InW), p.tensor(rows, sp),
			p.randn32(g.InC * g.InH * g.InW), p.randn32(rows * sp)})
	}
	scratch := make([]conv, len(convs))
	for i, c := range convs {
		scratch[i] = conv{c.g, tensor.New(c.g.InC, c.g.InH, c.g.InW), tensor.New(c.cols.Shape()...),
			make([]float32, len(c.img32)), make([]float32, len(c.col32))}
	}
	out["tensor.im2col_f64_ns"] = p.nsPerCall(func() {
		for i, c := range convs {
			tensor.Im2ColInto(scratch[i].cols, c.img, c.g)
		}
	})
	out["tensor.col2im_f64_ns"] = p.nsPerCall(func() {
		for i, c := range convs {
			tensor.Col2ImInto(scratch[i].img, c.cols, c.g)
		}
	})
	out["tensor.im2col_f32_ns"] = p.nsPerCall(func() {
		for i, c := range convs {
			tensor.Im2Col32Into(scratch[i].col32, c.img32, c.g)
		}
	})
	out["tensor.col2im_f32_ns"] = p.nsPerCall(func() {
		for i, c := range convs {
			tensor.Col2Im32Into(scratch[i].img32, c.col32, c.g)
		}
	})
}

// laneSlots is how many devices the f32 probe fuses: the paper cell's
// expected sample per edge (K_n = 0.5·100/10).
const laneSlots = 5

// probeModel times the model-level calls: both train steps, the parameter
// copies of an upload/download, evaluation, and minibatch assembly.
func (p *prober) probeModel(w *workload, in *inputs, out map[string]float64) error {
	c := w.cfg
	net, err := c.Arch()(p.rng)
	if err != nil {
		return fmt.Errorf("probe model: %w", err)
	}
	data := in.parts[0]
	x := tensor.New(c.BatchSize, data.InC, data.InH, data.InW)
	labels, idx := make([]int, c.BatchSize), make([]int, c.BatchSize)
	out["dataset.batch_ns"] = p.nsPerCall(func() { data.RandomBatchInto(p.rng, x, labels, idx) })

	// A zero learning rate keeps the weights, and so the arithmetic, the
	// same on every repetition (no drift into a converged or denormal
	// regime while the probe spins).
	frozen := nn.NewSGD(0)
	step := func() { net.TrainStep(x, labels, frozen) }
	out["nn.train_step_f64_us"] = p.nsPerCall(step) / 1e3
	out["nn.train_step_f64_allocs"] = allocsPerCall(step)

	lane, err := nn.NewLane32(net, laneSlots)
	if err != nil {
		return fmt.Errorf("probe f32 lane: %w", err)
	}
	params := net.ParamVector()
	laneLabels := make([][]int, laneSlots)
	for s := 0; s < laneSlots; s++ {
		if err := lane.LoadParams(s, params); err != nil {
			return fmt.Errorf("probe f32 lane: %w", err)
		}
		lane.SetInput(s, c.BatchSize, x.Data())
		laneLabels[s] = labels
	}
	losses, norms := make([]float64, laneSlots), make([]float64, laneSlots)
	out["nn.train_step_f32_us"] = p.nsPerCall(func() {
		lane.TrainStep(laneSlots, c.BatchSize, laneLabels, 0, losses, norms)
	}) / 1e3 / laneSlots

	buf := make([]float64, len(params))
	var copyErr error
	out["nn.param_copy_ns"] = p.nsPerCall(func() {
		buf = net.ParamVectorInto(buf)
		if err := net.SetParamVector(buf); err != nil {
			copyErr = err
		}
	})
	if copyErr != nil {
		return fmt.Errorf("probe param copy: %w", copyErr)
	}

	tx, ty := in.test.All()
	out["nn.eval_us_per_sample"] = p.nsPerCall(func() { net.EvaluateSums(tx, ty) }) / 1e3 / float64(len(ty))
	return nil
}

// probeMobility times the workload's own mobility source one step at a time
// together with the member-index repair that consumes its move stream.
func (p *prober) probeMobility(w *workload, seed int64, out map[string]float64) error {
	c := w.cfg
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	// A dense schedule's horizon is materialised, so the probe cycles a
	// short one (the wrap is one rebuild per horizon); a streaming source's
	// horizon is only a bound.
	horizon := 512
	var src mobility.StepSource
	var err error
	if w.stayProb > 0 {
		horizon = math.MaxInt32
		src, err = mobility.NewMarkovSource(seed+2, c.Edges, c.Devices, horizon, w.stayProb)
	} else {
		src, err = mobility.GenerateScheduleWaypoint(seed+2, c.Edges, c.Devices, horizon, c.StationsPerEdge, mobility.DefaultWaypoint())
	}
	if err != nil {
		return fmt.Errorf("probe mobility: %w", err)
	}
	index := mobility.NewMemberIndexWindow(0, c.Edges)
	row := make([]int, c.Devices)
	t := -1
	var advanceNS, repairNS time.Duration
	var steps, moved int
	advance := func() error {
		t = (t + 1) % horizon
		t0 := telemetry.WallNow()
		moves, rebuilt, err := src.AdvanceTo(t)
		t1 := telemetry.WallNow()
		if err != nil {
			return err
		}
		if rebuilt || t == 0 {
			row = src.Snapshot(row)
			index.AdvanceWith(t, row, nil, true)
			return nil // resyncs are not the steady state being measured
		}
		mobility.ApplyMoves(row, moves)
		index.AdvanceWith(t, row, moves, false)
		repairNS += telemetry.WallSince(t1)
		advanceNS += t1.Sub(t0)
		steps++
		moved += len(moves)
		return nil
	}
	if err := advance(); err != nil {
		return fmt.Errorf("probe mobility: %w", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	out["mobility.resident_mb"] = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)

	perDevice, perMove := make([]float64, probeSamples), make([]float64, probeSamples)
	for s := range perDevice {
		advanceNS, repairNS, steps, moved = 0, 0, 0, 0
		for start := telemetry.WallNow(); telemetry.WallSince(start) < p.slice || steps == 0; {
			if err := advance(); err != nil {
				return fmt.Errorf("probe mobility: %w", err)
			}
		}
		perDevice[s] = float64(advanceNS.Nanoseconds()) / float64(steps) / float64(c.Devices)
		if moved > 0 {
			perMove[s] = float64(repairNS.Nanoseconds()) / float64(moved)
		}
	}
	out["mobility.advance_ns_per_device"] = median(perDevice)
	out["mobility.index_repair_ns_per_move"] = median(perMove)
	out["mobility.moves_per_step"] = float64(moved) / float64(steps)
	return nil
}

// probeMembers is the edge size the decide probes run at.
const probeMembers = 100

// probeSampling times the three stages of an edge's MACH decision at
// probeMembers members: UCB estimates, water-filling, and the experience
// observations of the sampled devices.
func (p *prober) probeSampling(w *workload, out map[string]float64) {
	c := w.cfg
	book := sampling.NewExperienceBook(probeMembers, c.MACH.ExplorationCoef, c.MACH.Discount)
	members := make([]int, probeMembers)
	norms := make([][]float64, probeMembers)
	for m := range members {
		members[m] = m
		norms[m] = make([]float64, c.LocalEpochs)
		for i := range norms[m] {
			norms[m][i] = 1 + p.rng.Float64()
		}
	}
	round := 0
	observe := func() {
		book.ObserveMany(members, norms)
		if round++; round%c.CloudInterval == 0 {
			book.CloudRound(round) // folds the buffers, as every T_g steps
		}
	}
	for i := 0; i < 2*c.CloudInterval; i++ {
		observe()
	}
	est, probs := make([]float64, probeMembers), make([]float64, probeMembers)
	capacity := c.Participation * probeMembers
	ucb := func() { book.UCBEstimatesInto(est, members, round) }
	fill := func() { probs = sampling.EdgeSamplingInto(c.MACH, capacity, est, probs) }
	out["sampling.ucb_ns_per_device"] = p.nsPerCall(ucb) / probeMembers
	out["sampling.waterfill_ns_per_device"] = p.nsPerCall(fill) / probeMembers
	out["sampling.observe_ns_per_device"] = p.nsPerCall(observe) / probeMembers
	out["sampling.decide_allocs"] = allocsPerCall(func() { ucb(); fill() })
}

// probeParallel times an empty task through the worker pool.
func (p *prober) probeParallel(out map[string]float64) {
	pool := parallel.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	out["parallel.dispatch_ns"] = p.nsPerCall(func() {
		g := pool.Group()
		g.Go(func() {})
		g.Wait()
	})
}

// probeCodec times the delta codec on the protocol's dominant blob — the
// model against a 1e-3-perturbed baseline — with the raw scheme as the
// floor, and reports whether the round trip was bit-exact.
func (p *prober) probeCodec(w *workload, out map[string]float64) (exact bool, err error) {
	net, err := w.cfg.Arch()(p.rng)
	if err != nil {
		return false, fmt.Errorf("probe codec: %w", err)
	}
	baseline := net.ParamVector()
	params := make([]float64, len(baseline))
	for i, v := range baseline {
		params[i] = v * (1 + 1e-3*p.rng.NormFloat64())
	}
	mb := float64(8*len(params)) / (1 << 20)
	var blob codec.Blob
	encode := func(s codec.Scheme) func() {
		return func() {
			b, encErr := codec.Encode(s, params, baseline, 1, nil)
			if encErr != nil {
				err = encErr
			}
			blob = b
		}
	}
	out["codec.encode_raw_mb_per_s"] = mb / (p.nsPerCall(encode(codec.SchemeRaw)) / 1e9)
	out["codec.encode_mb_per_s"] = mb / (p.nsPerCall(encode(codec.SchemeDelta)) / 1e9)
	out["codec.encode_allocs"] = allocsPerCall(encode(codec.SchemeDelta))
	if err != nil {
		return false, fmt.Errorf("probe codec encode: %w", err)
	}
	out["codec.ratio"] = float64(8*len(params)) / float64(len(blob.Data))
	var back []float64
	out["codec.decode_mb_per_s"] = mb / (p.nsPerCall(func() {
		v, decErr := codec.Decode(blob, baseline)
		if decErr != nil {
			err = decErr
		}
		back = v
	}) / 1e9)
	if err != nil {
		return false, fmt.Errorf("probe codec decode: %w", err)
	}
	return sameBits(params, back), nil
}

// probeRPC times an empty RPC over loopback against a one-device host.
func (p *prober) probeRPC(w *workload, in *inputs, seed int64, out map[string]float64) error {
	c := w.cfg
	host, err := fed.NewDeviceServer(c.Arch(), map[int]*dataset.Dataset{0: in.parts[0]}, c.MACH, seed)
	if err != nil {
		return fmt.Errorf("probe rpc: %w", err)
	}
	addr, err := host.Serve("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("probe rpc: %w", err)
	}
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("probe rpc: %w (close: %v)", err, host.Close())
	}
	var callErr error
	out["fed.rpc_roundtrip_us"] = p.nsPerCall(func() {
		var rep fed.PingReply
		if err := client.Call("Device.Ping", fed.PingArgs{}, &rep); err != nil {
			callErr = err
		}
	}) / 1e3
	if err := client.Close(); err != nil && callErr == nil {
		callErr = err
	}
	if err := host.Close(); err != nil && callErr == nil {
		callErr = err
	}
	if callErr != nil {
		return fmt.Errorf("probe rpc: %w", callErr)
	}
	return nil
}

// runProbes runs every probe for the workload. codecExact reports the codec
// round-trip check.
func runProbes(w *workload, in *inputs, seed int64, slice time.Duration) (out map[string]float64, codecExact bool, err error) {
	p := &prober{slice: slice, rng: rand.New(rand.NewSource(seed + 17))}
	out = map[string]float64{}
	p.probeTensor(w, out)
	if err := p.probeModel(w, in, out); err != nil {
		return nil, false, err
	}
	if err := p.probeMobility(w, seed, out); err != nil {
		return nil, false, err
	}
	p.probeSampling(w, out)
	p.probeParallel(out)
	codecExact, err = p.probeCodec(w, out)
	if err != nil {
		return nil, false, err
	}
	// The RPC probe belongs to the distributed stack; in-process workloads
	// report 0 for it like for every other fed metric.
	out["fed.rpc_roundtrip_us"] = 0
	if w.hosts > 0 {
		if err := p.probeRPC(w, in, seed, out); err != nil {
			return nil, false, err
		}
	}
	return out, codecExact, nil
}

// sameBits reports whether two vectors are Float64bits-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
