package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/sweep"
)

// TestConcurrentBitIdentical is the serving layer's concurrency proof
// (run it under -race): at least 64 overlapping /v1/analyze and /v1/sweep
// requests — a mix of cache hits, misses, and in-flight duplicates — must
// each return a body bit-identical to the sequential direct-call result,
// and the cache accounting must balance exactly (hits + misses ==
// lookups).
func TestConcurrentBitIdentical(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 1024, Sweep: sweep.Options{Workers: 2}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Distinct analyze bodies; several spellings canonicalize onto shared
	// keys so concurrent requests exercise hit/dedup paths, not just
	// misses.
	analyzeBodies := []string{
		`{"scenario":{}}`,
		`{"scenario":{"n":120}}`, // same key as the default spelling
		`{"scenario":{"n":100}}`,
		`{"scenario":{"n":140}}`,
		`{"scenario":{"v":5}}`,
		`{"scenario":{"k":4}}`,
		`{"scenario":{"m":15}}`,
		`{"scenario":{},"h_nodes":2}`,
	}
	sweepBodies := []string{
		`{"scenario":{},"axis":"n","values":[60,90,120,150]}`,
		`{"scenario":{},"axis":"v","values":[5,10,15]}`,
	}

	// Sequential ground truth, computed through direct calls to the same
	// compute functions the handlers use — byte-for-byte what a
	// lone, uncontended request would produce.
	ctx := context.Background()
	expectAnalyze := make(map[string][]byte)
	for _, body := range analyzeBodies {
		var req AnalyzeRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		p, _, err := s.analyzeKey(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.computeAnalyze(ctx, p, req)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		expectAnalyze[body] = append(blob, '\n')
	}
	expectSweep := make(map[string][]byte)
	for _, body := range sweepBodies {
		var req SweepRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		base, err := req.Scenario.Params()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := range req.Values {
			row, err := s.sweepPoint(ctx, base, req.point(i))
			if err != nil {
				t.Fatal(err)
			}
			enc.Encode(row)
		}
		expectSweep[body] = buf.Bytes()
	}

	lookups0 := cacheLookups.Value()
	hits0 := cacheHits.Value()
	misses0 := cacheMisses.Value()
	fwd0 := peerForwards.Value()

	const total = 96 // 64+ overlapping requests, interleaving both endpoints
	var wg sync.WaitGroup
	errs := make(chan error, total)
	for i := 0; i < total; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var path, body string
			var want []byte
			if i%3 == 2 {
				body = sweepBodies[i%len(sweepBodies)]
				path, want = "/v1/sweep", expectSweep[body]
			} else {
				body = analyzeBodies[i%len(analyzeBodies)]
				path, want = "/v1/analyze", expectAnalyze[body]
			}
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, got)
				return
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("%s %s: response differs from sequential result:\ngot  %q\nwant %q", path, body, got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	lookups := cacheLookups.Value() - lookups0
	hits := cacheHits.Value() - hits0
	misses := cacheMisses.Value() - misses0
	forwards := peerForwards.Value() - fwd0
	if hits+misses+forwards != lookups {
		t.Errorf("cache accounting broken: hits %d + misses %d + forwards %d != lookups %d", hits, misses, forwards, lookups)
	}
	if forwards != 0 {
		t.Errorf("unsharded server forwarded %d lookups", forwards)
	}
	if lookups == 0 || hits == 0 {
		t.Errorf("expected both hits and misses under this load: lookups=%d hits=%d", lookups, hits)
	}
}

// TestShutdownDrainsStreams: a graceful shutdown issued mid-stream lets
// every in-flight NDJSON sweep run to completion — no dropped rows, no
// duplicated rows — while new connections are refused. This is the
// in-process half of the SIGINT drain contract; the cmd/gbd-server
// subprocess test covers the real-signal half.
func TestShutdownDrainsStreams(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64, Sweep: sweep.Options{Workers: 1}, RequestTimeout: time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	serveDone := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(serveDone)
	}()
	base := "http://" + ln.Addr().String()

	// Trials make each point slow enough that the streams are provably
	// mid-flight when Shutdown lands.
	const streams = 4
	const points = 6
	body := `{"scenario":{},"axis":"n","values":[60,80,100,120,140,160],"trials":1500,"seed":3}`
	streams0 := sweepStreams.Value()
	type result struct {
		body []byte
		err  error
	}
	results := make(chan result, streams)
	for i := 0; i < streams; i++ {
		go func() {
			resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				results <- result{nil, err}
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- result{data, err}
		}()
	}

	// Wait until all streams have started, then shut down mid-stream.
	deadline := time.Now().Add(10 * time.Second)
	for sweepStreams.Value()-streams0 < streams {
		if time.Now().After(deadline) {
			t.Fatalf("streams never started: %d of %d", sweepStreams.Value()-streams0, streams)
		}
		time.Sleep(time.Millisecond)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	<-serveDone

	for i := 0; i < streams; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("stream %d: %v", i, r.err)
		}
		rows := parseRows(t, r.body)
		if len(rows) != points {
			t.Fatalf("stream %d: %d rows, want %d (drain must not drop rows):\n%s", i, len(rows), points, r.body)
		}
		seen := make(map[int]bool)
		for j, row := range rows {
			if row.Index != j {
				t.Errorf("stream %d: row %d has index %d (order broken)", i, j, row.Index)
			}
			if seen[row.Index] {
				t.Errorf("stream %d: duplicated row index %d", i, row.Index)
			}
			seen[row.Index] = true
			if row.Error != "" {
				t.Errorf("stream %d row %d: drained stream must finish its points, got error %q", i, j, row.Error)
			}
		}
	}

	// The drained server accepts nothing new.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("request after shutdown should fail")
	}
}
