package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share Op; Parent is the causing span's ID, or -1 for an op's root.
type span struct {
	ID     int
	Parent int
	Op     int
	Name   string
	Start  time.Duration // since the tracer started
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call. start and end are
// safe for concurrent use; the readers run after the ops are done.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, op, parent int, fn func()) {
	id := t.start(name, op, parent)
	fn()
	t.end(id)
}

// named returns the durations of every span called name, in milliseconds.
func (t *tracer) named(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// totalMS sums the durations of every span called name.
func (t *tracer) totalMS(name string) float64 {
	var sum float64
	for _, d := range t.named(name) {
		sum += d
	}
	return sum
}

// unattributedPct is the share of the wall time of spans called root that
// none of their direct children covers: the time between layer calls.
func (t *tracer) unattributedPct(root string) float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var wall, uncovered time.Duration
	for _, s := range t.spans {
		if s.Name != root {
			continue
		}
		wall += s.dur()
		uncovered += s.dur() - covered(children[s.ID])
	}
	if wall == 0 {
		return 0
	}
	return 100 * float64(uncovered) / float64(wall)
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total, end time.Duration
	first := true
	var start time.Duration
	for _, s := range ss {
		switch {
		case first:
			start, end, first = s.Start, s.End, false
		case s.Start > end:
			total += end - start
			start, end = s.Start, s.End
		case s.End > end:
			end = s.End
		}
	}
	if !first {
		total += end - start
	}
	return total
}

// writeChrome writes the spans in Chrome trace_event format, one track per
// op, for chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: s.Op + 1, Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op}})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
