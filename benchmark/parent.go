package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// fileResult is the result file of an all-workloads run, and what -compare
// reads.
type fileResult struct {
	Seed int64 `json:"seed"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim     *string                   `json:"claim"`
	Env       environment               `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GoVersion  string  `json:"go_version"`
	GitHead    string  `json:"git_head"`
	RunSeconds float64 `json:"run_seconds"`
}

// workloadResult is one workload's timed and traced child results.
type workloadResult struct {
	Timed       runResult `json:"timed"`
	Traced      runResult `json:"traced"`
	FailedShare float64   `json:"failed_share"`
	// Errors explains a child that could not be read (non-zero exit,
	// time-out, malformed result); such a child counts as entirely failed.
	Errors []string `json:"errors,omitempty"`
}

// Children get this much more than --seconds before they are timed out
// (threefold): set-up, teardown and, for traced runs, probes plus the
// untraced reference episode.
const (
	timedOverhead  = 15 * time.Second
	tracedOverhead = 60 * time.Second
)

// runAll runs every workload of the spec, each as a timed and a traced
// child process so heap, GC state and peak RSS never leak between them,
// writes the result file, and returns non-zero iff any check failed.
func runAll(sp *spec, seed int64, seconds float64, out, specPath string) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	res := fileResult{
		Seed: seed,
		Env: environment{
			NumCPU: runtime.NumCPU(), GoMaxProcs: procs(),
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
			GitHead: gitHead(), RunSeconds: seconds,
		},
		Workloads: map[string]workloadResult{},
	}
	failed := false
	for _, load := range sp.Workloads {
		var wr workloadResult
		attempted, bad := 0, 0
		for trace, r := range []*runResult{&wr.Timed, &wr.Traced} {
			expected := time.Duration(seconds*float64(time.Second)) + []time.Duration{timedOverhead, tracedOverhead}[trace]
			got, err := runChild(self, 3*expected,
				"-workload", load.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-out", out, "-spec", specPath)
			if err != nil {
				wr.Errors = append(wr.Errors, err.Error())
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", load.Name, trace, err)
				got = runResult{Attempted: 1, Failed: 1}
			}
			*r = got
			attempted += got.Attempted
			bad += got.Failed
		}
		wr.FailedShare = float64(bad) / float64(attempted)
		failed = failed || bad > 0
		res.Workloads[load.Name] = wr
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return 1, err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return 1, err
	}
	fmt.Printf("wrote %s (span and snapshot files in %s)\n", out, filepath.Dir(out))
	if failed {
		return 1, nil
	}
	return 0, nil
}

// runChild re-executes the benchmark for one workload run, echoing its
// output, and parses the result object on its last line.
func runChild(self string, timeout time.Duration, args ...string) (runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = time.Second // do not wait on a killed child's open pipes
	if err := cmd.Run(); err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return runResult{}, fmt.Errorf("timed out after %v", timeout)
		}
		return runResult{}, fmt.Errorf("child failed: %w", err)
	}
	return parseResult(stdout.Bytes())
}

// parseResult reads the result object from the last line of a run's output.
func parseResult(stdout []byte) (runResult, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var r runResult
	if err := dec.Decode(&r); err != nil {
		return runResult{}, fmt.Errorf("malformed result line: %w", err)
	}
	if r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted || len(r.Metrics) == 0 {
		return runResult{}, fmt.Errorf("malformed result: attempted=%d failed=%d metrics=%d", r.Attempted, r.Failed, len(r.Metrics))
	}
	return r, nil
}

// gitHead is the commit being measured, or "unknown" outside a work tree.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
