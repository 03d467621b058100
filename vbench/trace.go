package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent is 0 at the top.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Req    string  `json:"req"`
	Start  float64 `json:"start_ms"` // since the tracer's origin
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) start(parent int, name, req string) int {
	now := ms(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	return id
}

func (t *tracer) end(id int) {
	now := ms(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// duration is a finished span's length in milliseconds.
func (t *tracer) duration(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].End - t.spans[id-1].Start
}

// timed runs fn inside a span.
func (t *tracer) timed(parent int, name, req string, fn func()) {
	id := t.start(parent, name, req)
	fn()
	t.end(id)
}

// selfTimes sums, per span name, each span's duration minus the part
// its direct children cover (children of one span never overlap: every
// span's calls are sequential).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += s.End - s.Start
		if s.Parent != 0 {
			p := t.spans[s.Parent-1]
			out[p.Name] -= s.End - s.Start
		}
	}
	return out
}

// coverage is the share of the named spans' total duration that their
// direct children cover.
func (t *tracer) coverage(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total, covered float64
	for _, s := range t.spans {
		switch {
		case s.Name == name:
			total += s.End - s.Start
		case s.Parent != 0 && t.spans[s.Parent-1].Name == name:
			covered += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return covered / total
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
