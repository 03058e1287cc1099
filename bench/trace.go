package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the client span's id to the replica handler, so a
// handler span names the request span that caused it.
const spanHeader = "X-Bench-Span"

// maxKeptSpans bounds the spans held for the JSON dump. Aggregates cover
// every span; only the dump is truncated, and it says how many it lost.
const maxKeptSpans = 200000

// span is one timed call across a layer boundary, recorded by benchmark
// code around a call into the program.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// busy accumulates the calls and time recorded under one aggregate key.
type busy struct {
	n     int
	total time.Duration
}

// tracer keeps spans in memory and per-key aggregates. A nil *tracer is
// the untraced mode: every method is a no-op, so untraced runs pay one
// nil check per call site.
type tracer struct {
	origin  time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
	agg     map[string]*busy
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), agg: make(map[string]*busy)}
}

// id allocates a span id; 0 when untraced.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores one span and adds its duration under each aggregate key.
func (t *tracer) record(id, parent uint64, name, attr string, start, end time.Time, keys ...string) {
	if t == nil {
		return
	}
	d := end.Sub(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, span{
			ID: id, Parent: parent, Name: name, Attr: attr,
			Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
		})
	} else {
		t.dropped++
	}
	for _, k := range keys {
		b := t.agg[k]
		if b == nil {
			b = &busy{}
			t.agg[k] = b
		}
		b.n++
		b.total += d
	}
}

// busyOf returns the aggregate under key (zero if never recorded).
func (t *tracer) busyOf(key string) busy {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b := t.agg[key]; b != nil {
		return *b
	}
	return busy{}
}

// perBusySecond is calls per second of time spent in them under key: the
// layer's own throughput, 0 when the workload never entered the layer.
func (t *tracer) perBusySecond(key string) float64 {
	b := t.busyOf(key)
	return ratio(float64(b.n), b.total.Seconds())
}

// dump writes every kept span as one JSON document.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	doc := struct {
		Origin  time.Time `json:"origin"`
		Dropped int       `json:"dropped"`
		Spans   []span    `json:"spans"`
	}{t.origin, t.dropped, t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("span dump %s: %w", path, err)
	}
	return f.Close()
}
