package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/mach-fl/mach/internal/telemetry"
)

// span is one interval recorded by the harness around a call into the
// program: the layer boundary it brackets, when, and the span that caused it.
// All spans of one invocation share Run.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps the harness's spans in memory until the benchmark ends. A
// nil recorder records nothing, so timed runs execute the same harness code
// without the bookkeeping.
type recorder struct {
	run   string
	t0    time.Time
	spans []span
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, t0: telemetry.WallNow()}
}

// now is the recorder's clock: nanoseconds since it was created.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return telemetry.WallSince(r.t0).Nanoseconds()
}

// start opens a span under parent (-1 = root) and returns its ID.
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return -1
	}
	return r.add(name, parent, r.now(), 0)
}

// end closes a span opened by start.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].EndNS = r.now()
}

// add records a span with explicit timestamps (used for step spans, whose
// boundaries are hook callbacks rather than bracketed calls).
func (r *recorder) add(name string, parent int, startNS, endNS int64) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name, StartNS: startNS, EndNS: endNS})
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Children are clipped to the parent
// and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, edge), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// selfByName sums self time over spans sharing a name.
func selfByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += ns
	}
	return out
}

// writeSpans writes the recorded spans as JSON lines, one span per line with
// its derived self time.
func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	self := selfTimes(spans)
	for i, s := range spans {
		line, err := json.Marshal(struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, self[i]})
		if err != nil {
			return fmt.Errorf("encode span %d: %w", i, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
