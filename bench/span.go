package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the id
// of the span that caused it (-1 for a root); Req groups the spans of one
// request or design point. Times are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the replay code runs unchanged with tracing off — the pair of
// passes is what trace.overhead_ratio compares.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (-1 from a nil tracer).
func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// in times fn as a child span.
func (t *tracer) in(name string, parent, req int, fn func()) {
	id := t.start(name, parent, req)
	fn()
	t.end(id)
}

// len is the number of spans recorded so far (0 for a nil tracer).
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover (overlapping children — parallel
// workers under one parent — are counted once).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var cover, hi time.Duration
		hi = s.Start
		for _, c := range ivs {
			a, b := c.a, c.b
			if a < hi {
				a = hi
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				cover += b - a
				hi = b
			}
		}
		self[i] = s.dur() - cover
	}
	return self
}

// byName collects the durations of every span with the given name, in
// recording order.
func byName(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeSpans dumps the spans as NDJSON with their self times.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for i, s := range spans {
		if err := enc.Encode(struct {
			span
			Self time.Duration `json:"self_ns"`
		}{s, self[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
