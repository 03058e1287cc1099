// Package obs is the zero-dependency observability layer: a metrics
// registry (counters, gauges, histograms — all with lock-free atomic fast
// paths), JSON-serializable snapshots, and per-run manifests that record
// what a binary did (parameters, seed, build identity, wall/CPU time, and
// the final metric snapshot).
//
// Design contract (DESIGN.md §9): instrumentation on hot paths costs one
// atomic read-modify-write per event and never takes a lock, allocates, or
// touches an RNG — so enabling metrics cannot perturb simulation results,
// and determinism goldens stay bit-identical with collection on.
// Registration (Registry.Counter and friends) is mutex-guarded and meant
// to run once per metric at package init, not per event.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level that can move both ways (queue depth,
// in-flight workers). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative to decrease) and returns the new
// level, so callers can feed a high-water companion gauge.
func (g *Gauge) Add(d int64) int64 { return g.v.Add(d) }

// SetMax raises the gauge to v if v exceeds the current level; it never
// lowers it. This is the high-water-mark primitive.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets with upper bounds
// (cumulative on snapshot, like Prometheus "le" buckets) plus a running
// count and sum. Observe is lock-free: one atomic add on the bucket, the
// count, and a CAS loop on the float sum.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given sorted upper bounds. It
// is normally reached through Registry.Histogram.
func NewHistogram(bounds []float64) (*Histogram, error) {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			return nil, fmt.Errorf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds)
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}, nil
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (~10) and the early bounds are
	// the common case, so this beats binary search on the hot path.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bucket is one cumulative histogram bucket in a snapshot: Count
// observations were <= UpperBound (the last bucket's bound is +Inf,
// serialized as the JSON string "+Inf").
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramSnapshot is the serializable state of one histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// snapshot renders the cumulative bucket view. encoding/json rejects
// infinities, so the final (overflow) bucket bound is clamped to
// MaxFloat64 instead of +Inf.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.Count(),
		Sum:     h.Sum(),
		Buckets: make([]Bucket, len(h.buckets)),
	}
	cum := uint64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		bound := math.MaxFloat64 // overflow bucket stand-in for +Inf
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: bound, Count: cum}
	}
	return s
}

// Registry is a named collection of metrics. Metric handles are stable:
// hot paths capture the pointer once (package init) and never look names
// up again.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Default is the process-wide registry every instrumented package
// registers into and every run manifest snapshots.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (later calls ignore bounds).
// Invalid bounds panic: they are a programming error at package init, not
// a runtime condition.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		var err error
		h, err = NewHistogram(bounds)
		if err != nil {
			panic(err)
		}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time, JSON-serializable view of a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value. Concurrent updates may
// land before or after the capture per metric; each individual value is
// read atomically.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// SecondsBuckets is the shared latency bucket layout (in seconds) used by
// duration histograms across the repo: 1µs to ~100s in decade-and-a-half
// steps.
func SecondsBuckets() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 60, 100}
}
