package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"

	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/telemetry"
)

// CommBenchPreset is the fixed configuration of `machbench -exp comm`: the
// standard CI MNIST cell (30 devices, 5 edges) with a reduced step budget.
// Keeping the shape frozen makes BENCH_comm.json comparable across commits.
func CommBenchPreset() Config {
	cfg := TaskPreset(TaskMNIST, ScaleCI)
	cfg.Steps = 40
	cfg.Runs = 1
	cfg.EvalEvery = 5
	cfg.SmoothWindow = 1
	return cfg
}

// CommBenchRow measures one full distributed run under one wire format.
type CommBenchRow struct {
	// Scheme is the codec wire format of the run; Lossless whether it
	// preserves float64 bit patterns end to end.
	Scheme   string `json:"scheme"`
	Lossless bool   `json:"lossless"`
	// Measured wire bytes by segment: device-host→edge (uplink), the
	// reverse (downlink), and everything crossing the cloud's connections.
	DeviceUplinkBytes   int64 `json:"device_uplink_bytes"`
	DeviceDownlinkBytes int64 `json:"device_downlink_bytes"`
	CloudBytes          int64 `json:"cloud_bytes"`
	TotalBytes          int64 `json:"total_bytes"`
	// BytesPerStep is TotalBytes over the step budget; ReductionVsRaw is
	// the raw row's BytesPerStep divided by this row's.
	BytesPerStep   float64 `json:"bytes_per_step"`
	ReductionVsRaw float64 `json:"reduction_vs_raw"`
	// Model-bearing message counts behind the byte totals.
	Uploads        int64 `json:"uploads"`
	Downloads      int64 `json:"downloads"`
	CloudTransfers int64 `json:"cloud_transfers"`
	// FinalAccuracy of the run; BitIdenticalToRaw reports whether the
	// evaluation history and final global model match the raw run bit for
	// bit (the lossless contract).
	FinalAccuracy     float64 `json:"final_accuracy"`
	BitIdenticalToRaw bool    `json:"bit_identical_to_raw"`
	WallNs            int64   `json:"wall_ns"`
}

// CodecMicroRow times one codec scheme on a realistic global-model delta:
// the current model encoded against the previous one, the dominant blob
// shape of the protocol.
type CodecMicroRow struct {
	Scheme        string  `json:"scheme"`
	EncodeNsPerOp int64   `json:"encode_ns_per_op"`
	DecodeNsPerOp int64   `json:"decode_ns_per_op"`
	RawBytes      int     `json:"raw_bytes"`
	EncodedBytes  int     `json:"encoded_bytes"`
	Ratio         float64 `json:"compression_ratio"`
}

// CommBenchResult is the payload of BENCH_comm.json.
type CommBenchResult struct {
	GOOS    string          `json:"goos"`
	GOARCH  string          `json:"goarch"`
	NumCPU  int             `json:"num_cpu"`
	Task    string          `json:"task"`
	Model   string          `json:"model"`
	Devices int             `json:"devices"`
	Edges   int             `json:"edges"`
	Hosts   int             `json:"hosts"`
	Steps   int             `json:"steps"`
	Params  int             `json:"params"`
	Rows    []CommBenchRow  `json:"rows"`
	Micro   []CodecMicroRow `json:"micro"`
	// Profiles names the pprof files captured with this run, if any.
	Profiles *ProfileMeta `json:"profiles,omitempty"`
}

// RunCommBench runs the frozen configuration once per wire format on a
// single-host loopback cluster (the machnode default topology), measuring
// real bytes on every connection, and adds the codec micro-timings.
func RunCommBench(cfg Config) (*CommBenchResult, error) {
	const hosts = 1
	res := &CommBenchResult{
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		NumCPU:  runtime.NumCPU(),
		Task:    string(cfg.Task),
		Model:   cfg.Model,
		Devices: cfg.Devices,
		Edges:   cfg.Edges,
		Hosts:   hosts,
		Steps:   cfg.Steps,
	}

	var rawHist *metrics.History
	var rawGlobal []float64
	var rawPerStep float64
	// Raw runs first: every scheme rides the same protocol, and raw's
	// uncompressed payloads are the reference the other rows are compared to.
	schemes := []codec.Scheme{codec.SchemeRaw, codec.SchemeDelta, codec.SchemeFloat32, codec.SchemeInt8}
	for _, scheme := range schemes {
		// Fresh world per scheme with identical seeds: every run sees the
		// same datasets, schedule and model initialization, so lossless
		// schemes must reproduce the raw trajectory exactly.
		env, err := cfg.BuildEnvironment(0)
		if err != nil {
			return nil, err
		}
		cl, err := cfg.Cluster(env, hosts, scheme)
		if err != nil {
			return nil, fmt.Errorf("bench: comm deployment (%v): %w", scheme, err)
		}
		start := telemetry.WallNow()
		hist, err := cl.Run()
		wall := telemetry.WallSince(start)
		stats, serr := cl.CommStats()
		global := cl.GlobalParams()
		if err := errors.Join(err, serr, cl.Close()); err != nil {
			return nil, fmt.Errorf("bench: comm run (%v): %w", scheme, err)
		}

		row := CommBenchRow{
			Scheme:              scheme.String(),
			Lossless:            scheme.Lossless(),
			DeviceUplinkBytes:   stats.DeviceUplinkBytes,
			DeviceDownlinkBytes: stats.DeviceDownlinkBytes,
			CloudBytes:          stats.CloudBytes,
			TotalBytes:          stats.Total(),
			BytesPerStep:        float64(stats.Total()) / float64(cfg.Steps),
			Uploads:             stats.DeviceUploads,
			Downloads:           stats.DeviceDownloads,
			CloudTransfers:      stats.CloudTransfers,
			FinalAccuracy:       hist.FinalAccuracy(),
			WallNs:              wall.Nanoseconds(),
		}
		if scheme == codec.SchemeRaw {
			rawHist, rawGlobal, rawPerStep = hist, global, row.BytesPerStep
		}
		if row.BytesPerStep > 0 {
			row.ReductionVsRaw = rawPerStep / row.BytesPerStep
		}
		row.BitIdenticalToRaw = bitIdentical(rawHist, hist, rawGlobal, global)
		res.Params = len(global)
		res.Rows = append(res.Rows, row)
	}

	micro, err := runCodecMicro(cfg)
	if err != nil {
		return nil, err
	}
	res.Micro = micro
	return res, nil
}

// bitIdentical reports whether two runs produced the same evaluation history
// and final global model down to the float64 bit patterns.
func bitIdentical(h1, h2 *metrics.History, g1, g2 []float64) bool {
	if h1 == nil || h2 == nil || h1.Len() != h2.Len() || len(g1) != len(g2) {
		return false
	}
	for i := range h1.Points {
		p1, p2 := h1.Points[i], h2.Points[i]
		if p1.Step != p2.Step ||
			math.Float64bits(p1.Accuracy) != math.Float64bits(p2.Accuracy) ||
			math.Float64bits(p1.Loss) != math.Float64bits(p2.Loss) {
			return false
		}
	}
	for j := range g1 {
		if math.Float64bits(g1[j]) != math.Float64bits(g2[j]) {
			return false
		}
	}
	return true
}

// runCodecMicro times encode/decode per scheme on the protocol's dominant
// blob shape: the current model encoded against the previous one after an
// SGD-like relative perturbation.
func runCodecMicro(cfg Config) ([]CodecMicroRow, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	net0, err := cfg.Arch()(rng)
	if err != nil {
		return nil, err
	}
	baseline := net0.ParamVector()
	params := make([]float64, len(baseline))
	for i, v := range baseline {
		params[i] = v * (1 + 1e-3*rng.NormFloat64())
	}
	rawBytes := 8 * len(params)

	// An op is ~100 µs, and the first handful of calls pay for cold pooled
	// codec state, caches and branch predictors; best-of-25 reads the steady
	// state the protocol runs in.
	const iters = 25
	var rows []CodecMicroRow
	for _, scheme := range codec.Schemes() {
		var ef []float64
		if scheme == codec.SchemeInt8 {
			ef = make([]float64, len(params))
		}
		var blob codec.Blob
		encNs := bestOf(iters, func() {
			// Error feedback mutates ef; reset so every iteration encodes
			// the same input.
			for i := range ef {
				ef[i] = 0
			}
			b, encErr := codec.Encode(scheme, params, baseline, 1, ef)
			if encErr != nil {
				err = encErr
				return
			}
			blob = b
		})
		if err != nil {
			return nil, err
		}
		// SchemeRaw ignores the baseline and emits a baseline-free blob.
		decBaseline := baseline
		if blob.Baseline == 0 {
			decBaseline = nil
		}
		decNs := bestOf(iters, func() {
			if _, decErr := codec.Decode(blob, decBaseline); decErr != nil {
				err = decErr
			}
		})
		if err != nil {
			return nil, err
		}
		row := CodecMicroRow{
			Scheme:        scheme.String(),
			EncodeNsPerOp: encNs,
			DecodeNsPerOp: decNs,
			RawBytes:      rawBytes,
			EncodedBytes:  len(blob.Data),
		}
		if len(blob.Data) > 0 {
			row.Ratio = float64(rawBytes) / float64(len(blob.Data))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// bestOf runs fn iters times and returns the fastest run's wall time in ns.
func bestOf(iters int, fn func()) int64 {
	best := int64(0)
	for i := 0; i < iters; i++ {
		start := telemetry.WallNow()
		fn()
		d := telemetry.WallSince(start).Nanoseconds()
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// WriteCommBenchJSON writes the result as indented JSON.
func (r *CommBenchResult) WriteCommBenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RenderCommBench prints the result as text tables.
func RenderCommBench(w io.Writer, r *CommBenchResult) error {
	if _, err := fmt.Fprintf(w, "Wire-format benchmark — %s/%s, measured bytes on loopback TCP\n", r.GOOS, r.GOARCH); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "config: task=%s model=%s (%d params) devices=%d edges=%d hosts=%d steps=%d\n\n",
		r.Task, r.Model, r.Params, r.Devices, r.Edges, r.Hosts, r.Steps); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%8s %12s %12s %12s %12s %10s %10s %8s %6s\n",
		"scheme", "up B", "down B", "cloud B", "B/step", "vs raw", "bit-ident", "acc", "ms"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%8s %12d %12d %12d %12.0f %9.1fx %10v %8.4f %6d\n",
			row.Scheme, row.DeviceUplinkBytes, row.DeviceDownlinkBytes, row.CloudBytes,
			row.BytesPerStep, row.ReductionVsRaw, row.BitIdenticalToRaw,
			row.FinalAccuracy, row.WallNs/1e6); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n%8s %14s %14s %12s %12s %8s\n",
		"codec", "encode ns/op", "decode ns/op", "raw B", "encoded B", "ratio"); err != nil {
		return err
	}
	for _, m := range r.Micro {
		if _, err := fmt.Fprintf(w, "%8s %14d %14d %12d %12d %7.2fx\n",
			m.Scheme, m.EncodeNsPerOp, m.DecodeNsPerOp, m.RawBytes, m.EncodedBytes, m.Ratio); err != nil {
			return err
		}
	}
	return nil
}
