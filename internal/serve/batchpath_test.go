package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBatchIdentity: batch items take the standalone hit path. A batch
// mixing raw-body alias hits, canonical-key hits, misses and errors
// answers every line with the bytes the standalone endpoint (or, for the
// routeless sweep_point, a one-item batch) computes on a cold server; the
// aggregate X-Cache counts are those of canonical classification; the
// cache accounting identity holds; and the same request bytes under
// analyze and latency never share an alias.
func TestBatchIdentity(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	ref := httptest.NewServer(New(Config{}).Handler())
	defer ref.Close()

	// Standalone warm-up: an alias for item 0's exact bytes, a canonical
	// entry item 1 reaches under another spelling, and an analyze alias
	// for the bytes item 2 sends to latency.
	for _, body := range []string{`{"scenario":{}}`, `{"scenario":{"n":100}}`, `{"scenario":{"n":90}}`} {
		if code, _, out := post(t, ts, "/v1/analyze", body); code != http.StatusOK {
			t.Fatalf("warm-up %s: status %d: %s", body, code, out)
		}
	}
	items := []struct{ op, body string }{
		{"analyze", `{"scenario":{}}`},                                                 // alias hit
		{"analyze", `{"scenario": {"n": 100}}`},                                        // key hit
		{"latency", `{"scenario":{"n":90}}`},                                           // miss: bytes an analyze alias holds
		{"analyze", `{"scenario":{"n":-1}}`},                                           // plan error
		{"latency", `{"scenario":{"n":90}}`},                                           // repeated miss
		{"sweep_point", `{"scenario":{},"axis":"n","value":60,"trials":100,"seed":3}`}, // miss
	}
	var specs []string
	var want [][]byte
	for _, it := range items {
		spec := fmt.Sprintf(`{"op":%q,"request":%s}`, it.op, it.body)
		specs = append(specs, spec)
		var line []byte
		if it.op == "sweep_point" {
			_, _, line = post(t, ref, "/v1/batch", `{"items":[`+spec+`]}`)
		} else {
			_, _, line = post(t, ref, "/v1/"+it.op, it.body)
		}
		want = append(want, line)
	}
	batch := `{"items":[` + strings.Join(specs, ",") + `]}`

	lookups0, hits0 := cacheLookups.Value(), cacheHits.Value()
	misses0, fwd0 := cacheMisses.Value(), peerForwards.Value()
	code, xcache, body := post(t, ts, "/v1/batch", batch)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	if xcache != "hit=2,miss=3,forward=0,error=1" {
		t.Errorf("X-Cache = %q, want hit=2,miss=3,forward=0,error=1", xcache)
	}
	lookups, hits := cacheLookups.Value()-lookups0, cacheHits.Value()-hits0
	misses, forwards := cacheMisses.Value()-misses0, peerForwards.Value()-fwd0
	if hits+misses+forwards != lookups || hits != 2 || forwards != 0 {
		t.Errorf("lookups %d, hits %d, misses %d, forwards %d: want hits+misses+forwards == lookups with 2 hits",
			lookups, hits, misses, forwards)
	}
	lines := bytes.SplitAfter(body, []byte("\n"))
	if len(lines) != len(items)+1 || len(lines[len(items)]) != 0 {
		t.Fatalf("batch returned %q, want %d lines", body, len(items))
	}
	for i, line := range lines[:len(items)] {
		if !bytes.Equal(line, want[i]) {
			t.Errorf("item %d (%s %s):\ngot  %q\nwant %q", i, items[i].op, items[i].body, line, want[i])
		}
	}

	// Replayed, every computed item is now an alias hit with the same
	// bytes; the standalone routes hit the entries the batch populated.
	code, xcache, again := post(t, ts, "/v1/batch", batch)
	if code != http.StatusOK || xcache != "hit=5,miss=0,forward=0,error=1" || !bytes.Equal(again, body) {
		t.Errorf("replayed batch: status %d, X-Cache %q, bytes equal %v", code, xcache, bytes.Equal(again, body))
	}
	// The bytes item 2 sent to latency answer latency and analyze each
	// from its own entry.
	for _, path := range []string{"/v1/latency", "/v1/analyze"} {
		_, src, out := post(t, ts, path, `{"scenario":{"n":90}}`)
		_, _, ans := post(t, ref, path, `{"scenario":{"n":90}}`)
		if src != "hit" || !bytes.Equal(out, ans) {
			t.Errorf("standalone %s after the batch: X-Cache %q,\ngot  %q\nwant %q", path, src, out, ans)
		}
	}
}

// recordingRW is a ResponseWriter and Flusher that records writes and
// flushes in order; flushed is closed at the first Flush.
type recordingRW struct {
	mu      sync.Mutex
	h       http.Header
	code    int
	events  []string // each written line, or "flush"
	flushed chan struct{}
	once    sync.Once
}

func newRecordingRW() *recordingRW {
	return &recordingRW{h: make(http.Header), flushed: make(chan struct{})}
}

func (w *recordingRW) Header() http.Header  { return w.h }
func (w *recordingRW) WriteHeader(code int) { w.code = code }

func (w *recordingRW) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.events = append(w.events, string(p))
	return len(p), nil
}

func (w *recordingRW) Flush() {
	w.mu.Lock()
	w.events = append(w.events, "flush")
	w.mu.Unlock()
	w.once.Do(func() { close(w.flushed) })
}

// TestBatchWriteDiscipline: an all-hit batch is written without a flush
// and carries a Content-Length, while in [hit, miss] the hit line is
// written and flushed before the miss starts computing.
func TestBatchWriteDiscipline(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	serveBatch := func(w http.ResponseWriter, batch string) {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(batch)))
	}
	hit := `{"op":"analyze","request":{"scenario":{}}}`
	allHit := `{"items":[` + hit + `,{"op":"latency","request":{"scenario":{}}}]}`
	serveBatch(httptest.NewRecorder(), allHit)

	rec := newRecordingRW()
	serveBatch(rec, allHit)
	var n int
	for _, ev := range rec.events {
		if ev == "flush" {
			t.Fatalf("all-hit batch flushed: %q", rec.events)
		}
		n += len(ev)
	}
	if got := rec.h.Get("X-Cache"); got != "hit=2,miss=0,forward=0,error=0" {
		t.Fatalf("X-Cache = %q, want two hits", got)
	}
	if cl := rec.h.Get("Content-Length"); cl != fmt.Sprint(n) {
		t.Errorf("all-hit batch Content-Length = %q, want %d", cl, n)
	}
	hitLine := rec.events[0]

	// Hold the miss's flight open until the batch flushes: a batch that
	// computed first would wait on this flight without ever flushing.
	missBody := `{"scenario":{"n":133}}`
	key, compute, err := endpointFor("analyze").plan(s, []byte(missBody))
	if err != nil {
		t.Fatal(err)
	}
	rec = newRecordingRW()
	leader := make(chan error, 1)
	go func() {
		_, err, _ := s.flight.do(context.Background(), key, func() ([]byte, error) {
			select {
			case <-rec.flushed:
			case <-time.After(10 * time.Second):
				return nil, errors.New("the batch computed before flushing its held line")
			}
			return s.renderCompute(context.Background(), key, "", compute)
		})
		leader <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.flight.mu.Lock()
		_, open := s.flight.calls[key]
		s.flight.mu.Unlock()
		if open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the held flight never opened")
		}
	}
	serveBatch(rec, `{"items":[`+hit+`,{"op":"analyze","request":`+missBody+`}]}`)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	standalone := httptest.NewRecorder()
	h.ServeHTTP(standalone, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(missBody)))
	want := []string{hitLine, "flush", standalone.Body.String()}
	if fmt.Sprint(rec.events) != fmt.Sprint(want) {
		t.Errorf("[hit, miss] events = %q, want %q", rec.events, want)
	}
	if got := rec.h.Get("X-Cache"); got != "hit=1,miss=1,forward=0,error=0" {
		t.Errorf("[hit, miss] X-Cache = %q", got)
	}
	if cl := rec.h.Get("Content-Length"); cl != "" {
		t.Errorf("a computing batch set Content-Length %q", cl)
	}
}

// replayBody is a resettable request body, so one request can be served
// repeatedly without allocating in the harness.
type replayBody struct {
	data []byte
	off  int
}

func (rb *replayBody) Read(p []byte) (int, error) {
	if rb.off >= len(rb.data) {
		return 0, io.EOF
	}
	n := copy(p, rb.data[rb.off:])
	rb.off += n
	return n, nil
}

func (rb *replayBody) Close() error { return nil }

// TestBatchAllHitAllocs bounds the allocations of the four-item all-hit
// batch the ServedBatch benchmark measures: items answered by their
// raw-body alias are neither decoded nor canonicalized again.
func TestBatchAllHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	h := New(Config{}).Handler()
	body := &replayBody{data: []byte(`{"items":[` +
		`{"op":"analyze","request":{"scenario":{}}},` +
		`{"op":"analyze","request":{"scenario":{"n":100}}},` +
		`{"op":"latency","request":{"scenario":{}}},` +
		`{"op":"design","request":{"scenario":{},"target_prob":0.95}}]}`)}
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", body)
	w := newRecordingRW()
	serve := func() {
		body.off = 0
		w.events = w.events[:0]
		h.ServeHTTP(w, req)
	}
	serve()
	serve()
	if got := w.h.Get("X-Cache"); got != "hit=4,miss=0,forward=0,error=0" {
		t.Fatalf("X-Cache = %q, want four hits", got)
	}
	if allocs := testing.AllocsPerRun(100, serve); allocs > 60 {
		t.Errorf("all-hit batch: %.0f allocs/op, want <= 60", allocs)
	}
}
