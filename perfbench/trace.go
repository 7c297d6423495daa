package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. The benchmark records spans from its own code,
// around its HTTP requests and around the public functions it calls to
// replay a request's work layer by layer; Parent links a replayed call to
// the request (or the replayed call) that caused it, and Req names the
// request every span of one probe belongs to. Count is the number of
// identical calls the span covers, for calls too short to time one at a
// time.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// perCall is the span's duration divided by the calls it covers.
func (s span) perCall() time.Duration {
	if s.Count > 1 {
		return s.dur() / time.Duration(s.Count)
	}
	return s.dur()
}

// tracer keeps spans in memory until the run ends. Untraced runs have a nil
// *tracer: add accepts it, and the load loops test for it before timing.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the trace clock: nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// id reserves a span id.
func (t *tracer) id() int64 { return t.next.Add(1) }

// add records finished spans.
func (t *tracer) add(ss ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// timed runs f under a new span and records it. parent and req may be 0.
func (t *tracer) timed(name string, parent, req int64, count int, f func()) span {
	s := span{ID: t.id(), Parent: parent, Req: req, Name: name, Count: count}
	if req == 0 {
		s.Req = s.ID
	}
	s.Start = t.now()
	f()
	s.End = t.now()
	t.add(s)
	return s
}

// selfTime is a span's duration minus the part its children cover.
// Replayed children run one at a time after their parent returns, so their
// durations are disjoint and the covered part is their sum (a child
// covering several calls counts once per call of the parent).
func selfTime(parent span, children []span) time.Duration {
	d := parent.dur()
	for _, c := range children {
		d -= c.perCall()
	}
	if d < 0 {
		return 0
	}
	return d
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
