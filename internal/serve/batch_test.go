package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/obs"
)

// TestBatchBitIdentical: every /v1/batch line must be byte-equal to the
// standalone response of the same request, and the two surfaces must
// share cache entries in both directions.
func TestBatchBitIdentical(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	items := []struct {
		op, path, body string
	}{
		{"analyze", "/v1/analyze", `{"scenario":{}}`},
		{"analyze", "/v1/analyze", `{"scenario":{"n":100},"h_nodes":2}`},
		{"latency", "/v1/latency", `{"scenario":{}}`},
		{"design", "/v1/design", `{"scenario":{},"target_prob":0.95}`},
		{"simulate", "/v1/simulate", `{"scenario":{},"trials":500,"seed":7}`},
	}
	var specs []string
	var want [][]byte
	for _, it := range items {
		code, _, body := post(t, ts, it.path, it.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", it.path, code, body)
		}
		want = append(want, body)
		specs = append(specs, fmt.Sprintf(`{"op":%q,"request":%s}`, it.op, it.body))
	}

	code, xcache, body := post(t, ts, "/v1/batch", `{"items":[`+strings.Join(specs, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	// The standalone round populated every key, so the batch is all hits.
	if wantHdr := fmt.Sprintf("hit=%d,miss=0,forward=0,error=0", len(items)); xcache != wantHdr {
		t.Errorf("X-Cache = %q, want %q", xcache, wantHdr)
	}
	lines := bytes.SplitAfter(body, []byte("\n"))
	if lines[len(lines)-1] != nil && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) != len(items) {
		t.Fatalf("batch returned %d lines, want %d:\n%s", len(lines), len(items), body)
	}
	for i, line := range lines {
		if !bytes.Equal(line, want[i]) {
			t.Errorf("item %d (%s) differs from standalone response:\ngot  %q\nwant %q", i, items[i].op, line, want[i])
		}
	}

	// The reverse direction: a batch miss populates the cache the
	// standalone endpoint then hits.
	code, _, _ = post(t, ts, "/v1/batch",
		`{"items":[{"op":"analyze","request":{"scenario":{"n":77}}}]}`)
	if code != http.StatusOK {
		t.Fatal("batch miss failed")
	}
	_, src, _ := post(t, ts, "/v1/analyze", `{"scenario":{"n": 77}}`)
	if src != "hit" {
		t.Errorf("standalone after batch: X-Cache = %q, want hit (shared cache keys)", src)
	}
}

// TestBatchRepeatedMissComputesOnce: an item that repeats an earlier
// missing item in the same batch reuses its line instead of computing it
// again, with the cache on and off. Both copies still classify as misses
// at lookup.
func TestBatchRepeatedMissComputesOnce(t *testing.T) {
	item := `{"op":"simulate","request":{"scenario":{},"trials":1000,"seed":3}}`
	for _, entries := range []int{0, -1} {
		ts := httptest.NewServer(New(Config{CacheEntries: entries}).Handler())
		before := obs.Default.Snapshot().Counters["sim.trials"]
		code, xcache, body := post(t, ts, "/v1/batch", `{"items":[`+item+`,`+item+`]}`)
		trials := obs.Default.Snapshot().Counters["sim.trials"] - before
		ts.Close()
		if code != http.StatusOK {
			t.Fatalf("cache %d: status %d: %s", entries, code, body)
		}
		if xcache != "hit=0,miss=2,forward=0,error=0" {
			t.Errorf("cache %d: X-Cache = %q, want both copies classified as misses", entries, xcache)
		}
		if trials != 1000 {
			t.Errorf("cache %d: sim.trials advanced by %d, want 1000 (one compute)", entries, trials)
		}
		if lines := nonEmptyLines(body); len(lines) != 2 || !bytes.Equal(lines[0], lines[1]) {
			t.Errorf("cache %d: want two identical lines, got:\n%s", entries, body)
		}
	}
}

// TestBatchErrorsInBand: a broken item becomes an in-band error line at
// its position — counted in the aggregate header, never cached, and
// never failing the items around it.
func TestBatchErrorsInBand(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, xcache, body := post(t, ts, "/v1/batch", `{"items":[
		{"op":"analyze","request":{"scenario":{}}},
		{"op":"analyze","request":{"scenario":{"n":-5}}},
		{"op":"nope","request":{}},
		{"op":"latency","request":{"scenario":{}}}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if !strings.HasSuffix(xcache, ",error=2") {
		t.Errorf("X-Cache = %q, want 2 errors", xcache)
	}
	lines := nonEmptyLines(body)
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4:\n%s", len(lines), body)
	}
	for _, i := range []int{1, 2} {
		var e map[string]string
		if err := json.Unmarshal(lines[i], &e); err != nil || e["error"] == "" {
			t.Errorf("line %d should be an error line, got %q", i, lines[i])
		}
	}
	for _, i := range []int{0, 3} {
		var e map[string]any
		if err := json.Unmarshal(lines[i], &e); err != nil || e["error"] != nil {
			t.Errorf("line %d should be a data line, got %q", i, lines[i])
		}
	}

	// Envelope problems are still a whole-request 400.
	if code, _, _ := post(t, ts, "/v1/batch", `{"items":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty items: status %d, want 400", code)
	}
	// Item-count overflow is 413 (split and retry), distinct from the
	// malformed-envelope 400, and still carries the in-band error body.
	over := New(Config{MaxBatchItems: 1})
	ts2 := httptest.NewServer(over.Handler())
	defer ts2.Close()
	code, _, overBody := post(t, ts2, "/v1/batch",
		`{"items":[{"op":"analyze","request":{"scenario":{}}},{"op":"analyze","request":{"scenario":{}}}]}`)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("over batch-max-items: status %d, want 413", code)
	}
	var overErr map[string]string
	if err := json.Unmarshal([]byte(overBody), &overErr); err != nil || overErr["error"] == "" {
		t.Errorf("413 body should be an in-band error line, got %q", overBody)
	}
}

// TestBatchSweepPointMatchesStream: the sweep_point op renders the exact
// bytes the /v1/sweep stream emits for the same point. The batch goes to
// a second, cold server so both sides are computed, not one served from
// the other's cache.
func TestBatchSweepPointMatchesStream(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	cold := httptest.NewServer(New(Config{}).Handler())
	defer cold.Close()
	code, _, stream := post(t, ts, "/v1/sweep",
		`{"scenario":{},"axis":"n","values":[60,90,120],"trials":300,"seed":5,"index_base":10}`)
	if code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", code, stream)
	}
	var specs []string
	for i, v := range []int{60, 90, 120} {
		specs = append(specs, fmt.Sprintf(
			`{"op":"sweep_point","request":{"scenario":{},"axis":"n","value":%d,"index":%d,"trials":300,"seed":5}}`,
			v, 10+i))
	}
	code, xcache, batch := post(t, cold, "/v1/batch", `{"items":[`+strings.Join(specs, ",")+`]}`)
	if code != http.StatusOK || xcache != "hit=0,miss=3,forward=0,error=0" {
		t.Fatalf("batch: status %d, X-Cache %q: %s", code, xcache, batch)
	}
	if !bytes.Equal(batch, stream) {
		t.Errorf("sweep_point batch differs from stream:\ngot  %q\nwant %q", batch, stream)
	}

	// Validation errors surface in-band like every other op.
	code, xcache, body := post(t, ts, "/v1/batch",
		`{"items":[{"op":"sweep_point","request":{"scenario":{},"axis":"zzz","value":1}}]}`)
	if code != http.StatusOK || !strings.HasSuffix(xcache, ",error=1") {
		t.Errorf("bad axis: status %d X-Cache %q body %s", code, xcache, body)
	}
}

// TestBatchSingleAdmissionSlot: a batch with many computing items claims
// one admission slot, and a shed batch is a single 429 with Retry-After.
func TestBatchSingleAdmissionSlot(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	admitted0 := admitted.Value()
	code, _, body := post(t, ts, "/v1/batch", `{"items":[
		{"op":"analyze","request":{"scenario":{"n":61}}},
		{"op":"analyze","request":{"scenario":{"n":62}}},
		{"op":"analyze","request":{"scenario":{"n":63}}}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if got := admitted.Value() - admitted0; got != 1 {
		t.Errorf("batch admitted %d times, want 1 slot for the whole batch", got)
	}

	// Saturate the pool and the queue, then verify the shed batch's shape.
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	go func() {
		r, err := s.adm.acquire(context.Background()) // parks, filling the queue
		if err == nil {
			r()
		}
		close(queued)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"items":[{"op":"analyze","request":{"scenario":{"n":64}}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed batch: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	release()
	<-queued
}

// TestRetryAfterOnShed: every shed response (429 and 503) carries a
// positive integral Retry-After derived from the queue state.
func TestRetryAfterOnShed(t *testing.T) {
	a := newAdmission(2, 8)
	if got := a.retryAfterSeconds(); got != 1 {
		t.Errorf("idle retryAfterSeconds = %d, want the 1s floor", got)
	}
	a.queued.Store(20)
	if got := a.retryAfterSeconds(); got != 10 {
		t.Errorf("retryAfterSeconds = %d, want queued/workers = 10", got)
	}
	a.queued.Store(1000)
	if got := a.retryAfterSeconds(); got != 30 {
		t.Errorf("retryAfterSeconds = %d, want the 30s cap", got)
	}
}

func nonEmptyLines(body []byte) [][]byte {
	var out [][]byte
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) > 0 {
			out = append(out, line)
		}
	}
	return out
}
