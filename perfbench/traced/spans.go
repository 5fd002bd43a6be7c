package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one operation share Req; Parent is the span that
// made the call (0 for an operation's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Background marks work off the operation's blocking path (the
	// adaptive tier's optimizing compile); it covers no operation time.
	Background bool `json:"background,omitempty"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: []span{{}}} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// newReq starts a new operation: spans opened until the next newReq carry
// its identifier.
func (t *tracer) newReq() { t.req++ }

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.req, Name: name, Start: t.ns(time.Now())})
	return len(t.spans) - 1
}

// stop closes span id and returns its duration.
func (t *tracer) stop(id int) time.Duration {
	t.spans[id].End = t.ns(time.Now())
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// add records an already-completed span, e.g. one read back from the
// program's own query trace.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration, bg bool) int {
	s := t.ns(start)
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.req, Name: name, Start: s, End: s + d.Nanoseconds(), Background: bg})
	return len(t.spans) - 1
}

func (t *tracer) dur(id int) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its foreground children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := map[int][]int{}
	for _, s := range t.spans[1:] {
		if !s.Background {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans[1:] {
		if s.Background {
			out[s.Name] += time.Duration(s.End - s.Start)
			continue
		}
		var iv [][2]int64
		for _, k := range kids[s.ID] {
			c := t.spans[k]
			iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(iv))
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	first := true
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if first || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
			first = false
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// write stores the spans and the run record in one JSON file.
func (t *tracer) write(path string, record any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"record": record, "spans": t.spans[1:]})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
