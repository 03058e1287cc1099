package obs

import (
	"encoding/json"
	"math"
	"runtime"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("same name must return the same counter handle")
	}
	g := r.Gauge("g")
	g.Set(7)
	if lv := g.Add(-3); lv != 4 {
		t.Errorf("gauge add returned %d, want 4", lv)
	}
	g.SetMax(2)
	if got := g.Value(); got != 4 {
		t.Errorf("SetMax lowered the gauge to %d", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Errorf("SetMax = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 106.0; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	s := h.snapshot()
	// Cumulative: <=1: 2, <=2: 3, <=4: 4, overflow: 5.
	wantCounts := []uint64{2, 3, 4, 5}
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if s.Buckets[3].UpperBound != math.MaxFloat64 {
		t.Errorf("overflow bound = %v", s.Buckets[3].UpperBound)
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Error("unsorted bounds should fail")
	}
}

func TestConcurrentUpdatesReconcile(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	g := r.Gauge("depth")
	hw := r.Gauge("depth.max")
	h := r.Histogram("lat", []float64{1, 10})
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				hw.SetMax(g.Add(1))
				h.Observe(float64(i % 20))
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	want := uint64(workers * perWorker)
	if c.Value() != want {
		t.Errorf("counter = %d, want %d", c.Value(), want)
	}
	if h.Count() != want {
		t.Errorf("histogram count = %d, want %d", h.Count(), want)
	}
	if g.Value() != 0 {
		t.Errorf("gauge should settle at 0, got %d", g.Value())
	}
	if hwv := hw.Value(); hwv < 1 || hwv > int64(workers) {
		t.Errorf("high-water %d outside [1, %d]", hwv, workers)
	}
	// The CAS-accumulated float sum must equal the exact sequential sum:
	// all addends are small integers, so no rounding is involved.
	wantSum := float64(workers) * func() float64 {
		s := 0.0
		for i := 0; i < perWorker; i++ {
			s += float64(i % 20)
		}
		return s
	}()
	if h.Sum() != wantSum {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(-2)
	r.Histogram("c", []float64{1}).Observe(0.5)
	s := r.Snapshot()
	if s.Counters["a"] != 3 || s.Gauges["b"] != -2 || s.Histograms["c"].Count != 1 {
		t.Errorf("snapshot = %+v", s)
	}
	if buf, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot must serialize: %v", err)
	} else if len(buf) == 0 {
		t.Fatal("empty serialization")
	}
}
