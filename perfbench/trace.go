package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark side.
// Spans of one operation share Op; Parent indexes the enclosing span
// (-1 for an operation's root or a stand-alone probe).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured code path is
// the same in both modes apart from the span bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, op, parent int, fn func() error) error {
	id := t.begin(name, op, parent)
	err := fn()
	t.end(id)
	return err
}

// durationsMS returns the durations of every closed span with the given
// name, in milliseconds.
func (t *tracer) durationsMS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// p50MS is the median duration of the named spans (0 when none ran).
func (t *tracer) p50MS(name string) float64 { return median(t.durationsMS(name)) }

// selfNS returns a span's duration minus the part of its interval that
// its child spans cover.
func (t *tracer) selfNS(id int) int64 {
	s := t.spans[id]
	var iv [][2]int64
	for _, c := range t.spans {
		if c.Parent == id && c.End >= 0 {
			iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, curS, curE := int64(0), int64(-1), int64(-1)
	for _, v := range iv {
		if v[0] > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return (s.End - s.Start) - covered
}

// unattributedFrac is the share of the operations' wall time (root spans
// whose name starts with prefix) that no layer span covers.
func (t *tracer) unattributedFrac(prefix string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var self, total int64
	for i, s := range t.spans {
		if s.Parent == -1 && s.End >= 0 && len(s.Name) >= len(prefix) && s.Name[:len(prefix)] == prefix {
			self += t.selfNS(i)
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
