package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Parent is the
// id of the span that caused it (0 for a top-level operation); spans of one
// user operation share the top-level span as their ancestor.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span; finish it with end.
type open struct {
	tr     *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin starts a span named name under parent (nil for a top-level span).
func (t *tracer) begin(name string, parent *open) *open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	var pid int64
	if parent != nil {
		pid = parent.id
	}
	return &open{tr: t, id: id, parent: pid, name: name, start: time.Now()}
}

// end finishes the span and returns its duration.
func (o *open) end() time.Duration {
	if o == nil {
		return 0
	}
	now := time.Now()
	t := o.tr
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Name: o.name,
		Start: int64(o.start.Sub(t.t0)), End: int64(now.Sub(t.t0))})
	t.mu.Unlock()
	return now.Sub(o.start)
}

// selfTimes returns, per span name, the summed self time in milliseconds: a
// span's duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return out
}

// write stores the spans, the per-name self times and the environment
// fingerprint as one JSON file.
func (t *tracer) write(path string, fp map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"env": fp, "self_ms": self, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// count returns the number of spans recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
