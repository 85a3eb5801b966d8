package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadResult(path string) (*fileResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r fileResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &r, nil
}

// compareFiles is the -compare mode; see compareResults.
func compareFiles(out io.Writer, sp *spec, pathA, pathB string, agree bool) (int, error) {
	a, err := loadResult(pathA)
	if err != nil {
		return 2, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return 2, err
	}
	if bad := compareResults(out, sp, a, b, agree); bad > 0 {
		return 1, nil
	}
	return 0, nil
}

// compareResults prints one row per (workload, end-to-end metric) of base a
// against candidate b and returns how many rows are out of bounds. The
// regression gate is directional: a row fails when b is worse than a by more
// than the metric's bound (as a share of a), or when the workload's
// failed_share rose. With agree the check is symmetric — two sets of runs of
// one commit must be within the bound of each other either way — and
// failed_share must be equal.
func compareResults(out io.Writer, sp *spec, a, b *fileResult, agree bool) int {
	bad := 0
	row := func(load, metric string, va, vb, change, bound float64, ok bool) {
		verdict := "ok"
		if !ok {
			verdict = "FAIL"
			bad++
		}
		fmt.Fprintf(out, "%-14s %-26s %14.6g %14.6g %+8.2f%% (bound %5.1f%%) %s\n", load, metric, va, vb, 100*change, 100*bound, verdict)
	}
	for _, load := range sp.Workloads {
		wa, okA := a.Workloads[load.Name]
		wb, okB := b.Workloads[load.Name]
		if !okA || !okB {
			fmt.Fprintf(out, "%-14s missing from a result file FAIL\n", load.Name)
			bad++
			continue
		}
		for _, m := range sp.EndToEnd {
			ma, okA := wa.Timed.Metrics[m.Name]
			mb, okB := wb.Timed.Metrics[m.Name]
			if !okA || !okB {
				fmt.Fprintf(out, "%-14s %-26s missing from a result file FAIL\n", load.Name, m.Name)
				bad++
				continue
			}
			change := (mb.Value - ma.Value) / math.Abs(ma.Value)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			if agree {
				worse = math.Abs(change)
			}
			row(load.Name, m.Name, ma.Value, mb.Value, change, m.Bound, worse <= m.Bound)
		}
		rose := wb.FailedShare > wa.FailedShare || (agree && wb.FailedShare < wa.FailedShare)
		row(load.Name, "failed_share", wa.FailedShare, wb.FailedShare, wb.FailedShare-wa.FailedShare, 0, !rose)
	}
	return bad
}
