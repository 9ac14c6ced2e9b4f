package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the harness into a layer. Spans of one
// request (or one batch pass) share Req; Parent is the ID of the span
// that caused this one, -1 at the root. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time (the sequential replay, or the batch pass).
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, req, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].dur())
}

// selfTimes returns each span's self time: its duration minus the
// durations of its direct children. Harness spans never overlap their
// siblings, so the children's durations are exactly the part of the
// interval they cover. The replay's layer spans are separate executions of
// one request linked parent to child by layer, which is why cover is taken
// by duration and not by interval. A negative self time is kept as
// measured; the reconciliation check judges it.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// byName groups values (durations or self times, ns) of spans by name.
func byName(spans []span, val func(span) int64) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(val(s)))
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
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
