package serve

import (
	"bytes"
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
)

// fleet is a set of in-process sharded replicas listening on real TCP
// ports (the peer URLs must be known before serve.New, so listeners come
// first).
type fleet struct {
	urls    []string
	servers []*Server
	https   []*http.Server
}

func startFleet(t *testing.T, n int, cfg Config) *fleet {
	t.Helper()
	f := &fleet{}
	var lns []net.Listener
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		c := cfg
		c.Peers = append([]string(nil), f.urls...)
		c.Self = f.urls[i]
		if err := c.ValidatePeers(); err != nil {
			t.Fatal(err)
		}
		s := New(c)
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		f.servers = append(f.servers, s)
		f.https = append(f.https, hs)
	}
	t.Cleanup(func() {
		for _, hs := range f.https {
			hs.Close()
		}
	})
	return f
}

func fleetPost(url, path, body string) (int, []byte, error) {
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// TestFleetBitIdentical is the fleet correctness proof: three sharded
// replicas under a concurrent mixed analyze/latency/batch workload must
// return, from every replica, bytes equal to a single unsharded
// instance; the fleet-wide cache accounting must balance exactly
// (hits + misses + forwards == lookups); and during the analyze-only
// phase no key may be computed by more than one replica.
func TestFleetBitIdentical(t *testing.T) {
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
	latencyBodies := []string{
		`{"scenario":{}}`,
		`{"scenario":{"n":100}}`,
	}
	batchBodies := []string{
		`{"items":[{"op":"analyze","request":{"scenario":{"n":100}}},{"op":"latency","request":{"scenario":{}}}]}`,
		`{"items":[{"op":"sweep_point","request":{"scenario":{},"axis":"n","value":90,"index":3}},{"op":"analyze","request":{"scenario":{}}}]}`,
	}

	// Single-instance ground truth (its admissions land before the
	// snapshot below; obs counters are process-global).
	single := httptest.NewServer(New(Config{}).Handler())
	defer single.Close()
	truth := map[string][]byte{}
	collect := func(path string, bodies []string) {
		for _, b := range bodies {
			code, _, data := post(t, single, path, b)
			if code != http.StatusOK {
				t.Fatalf("single %s %s: status %d: %s", path, b, code, data)
			}
			truth[path+"|"+b] = data
		}
	}
	collect("/v1/analyze", analyzeBodies)
	collect("/v1/latency", latencyBodies)
	collect("/v1/batch", batchBodies)

	f := startFleet(t, 3, Config{Workers: 4, QueueDepth: 256})
	distinct := map[string]bool{}
	for _, b := range analyzeBodies {
		var req AnalyzeRequest
		if err := json.Unmarshal([]byte(b), &req); err != nil {
			t.Fatal(err)
		}
		_, key, err := f.servers[0].analyzeKey(req)
		if err != nil {
			t.Fatal(err)
		}
		distinct[key] = true
	}

	lookups0 := cacheLookups.Value()
	hits0, misses0, fwd0 := cacheHits.Value(), cacheMisses.Value(), peerForwards.Value()
	admitted0 := admitted.Value()

	// Phase 1: analyze-only, concurrent, round-robin across replicas.
	// Every canonical key must be computed exactly once fleet-wide: the
	// owner's singleflight is the dedup point for all three replicas.
	const phase1 = 48
	var wg sync.WaitGroup
	errs := make(chan error, phase1+60)
	for i := 0; i < phase1; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := analyzeBodies[i%len(analyzeBodies)]
			code, data, err := fleetPost(f.urls[i%3], "/v1/analyze", body)
			if err != nil {
				errs <- err
				return
			}
			if code != http.StatusOK {
				errs <- fmt.Errorf("replica %d analyze: status %d: %s", i%3, code, data)
				return
			}
			if want := truth["/v1/analyze|"+body]; !bytes.Equal(data, want) {
				errs <- fmt.Errorf("replica %d analyze %s: differs from single instance:\ngot  %q\nwant %q", i%3, body, data, want)
			}
		}()
	}
	wg.Wait()
	if got, want := admitted.Value()-admitted0, uint64(len(distinct)); got != want {
		t.Errorf("fleet admitted %d computations for %d distinct keys: some key was computed by more than one replica", got, want)
	}

	// Phase 2: mixed analyze/latency/batch, still concurrent.
	for i := 0; i < 60; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var path, body string
			switch i % 3 {
			case 0:
				path, body = "/v1/analyze", analyzeBodies[i%len(analyzeBodies)]
			case 1:
				path, body = "/v1/latency", latencyBodies[i%len(latencyBodies)]
			default:
				path, body = "/v1/batch", batchBodies[i%len(batchBodies)]
			}
			code, data, err := fleetPost(f.urls[i%3], path, body)
			if err != nil {
				errs <- err
				return
			}
			if code != http.StatusOK {
				errs <- fmt.Errorf("replica %d %s: status %d: %s", i%3, path, code, data)
				return
			}
			if want := truth[path+"|"+body]; !bytes.Equal(data, want) {
				errs <- fmt.Errorf("replica %d %s %s: differs from single instance:\ngot  %q\nwant %q", i%3, path, body, data, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Fleet-wide accounting at quiescence: exact, not approximate.
	lookups := cacheLookups.Value() - lookups0
	hits := cacheHits.Value() - hits0
	misses := cacheMisses.Value() - misses0
	forwards := peerForwards.Value() - fwd0
	if hits+misses+forwards != lookups {
		t.Errorf("fleet accounting broken: hits %d + misses %d + forwards %d != lookups %d", hits, misses, forwards, lookups)
	}
	if forwards == 0 {
		t.Error("three sharded replicas forwarded nothing: sharding is not active")
	}
}

// TestFleetPeerDeath: killing a replica re-hashes its keys onto the
// survivors with zero client-visible errors — the probing request that
// discovers the death falls back (re-route or local compute) and still
// answers 200.
func TestFleetPeerDeath(t *testing.T) {
	f := startFleet(t, 3, Config{Workers: 4, QueueDepth: 256, PeerCooldown: time.Hour})
	deaths0 := peerDeaths.Value()

	// Find bodies owned by replica 2 as seen from replica 0, so its death
	// is guaranteed to matter for the traffic below.
	var owned []string
	for n := 60; n < 200 && len(owned) < 4; n += 2 {
		body := fmt.Sprintf(`{"scenario":{"n":%d}}`, n)
		var req AnalyzeRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		_, key, err := f.servers[0].analyzeKey(req)
		if err != nil {
			t.Fatal(err)
		}
		if m, _, self := f.servers[0].peers.Route(key); !self && m == 2 {
			owned = append(owned, body)
		}
	}
	if len(owned) == 0 {
		t.Skip("hash split left replica 2 with no sampled keys (vanishingly unlikely)")
	}

	f.https[2].Close()
	for round := 0; round < 2; round++ {
		for _, body := range owned {
			code, data, err := fleetPost(f.urls[0], "/v1/analyze", body)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if code != http.StatusOK {
				t.Fatalf("round %d: status %d (peer death must never surface as an error): %s", round, code, data)
			}
		}
	}
	if peerDeaths.Value() == deaths0 {
		t.Error("dead replica was never detected")
	}
	// After the death is detected, keys re-route deterministically: the
	// dead member is out of every survivor's ring.
	for _, body := range owned {
		var req AnalyzeRequest
		json.Unmarshal([]byte(body), &req)
		_, key, _ := f.servers[0].analyzeKey(req)
		if m, _, _ := f.servers[0].peers.Route(key); m == 2 {
			t.Errorf("key still routed to the dead replica after detection")
		}
	}
}

// TestFleetSweepForwardsRows: a /v1/sweep row whose key another replica
// owns is forwarded there, so in a 2-replica fleet every row is computed
// once fleet-wide, and the same sweep sent to the other replica computes
// nothing. Both streams equal a single unsharded instance's bytes.
func TestFleetSweepForwardsRows(t *testing.T) {
	const body = `{"scenario":{},"axis":"n","values":[60,70,80,90,100,110,120,130],"trials":50,"seed":2}`
	single := httptest.NewServer(New(Config{}).Handler())
	defer single.Close()
	code, _, want := post(t, single, "/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("single: status %d: %s", code, want)
	}

	f := startFleet(t, 2, Config{Workers: 4, QueueDepth: 64})
	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	owned := [2]uint64{}
	for i := range req.Values {
		_, key, err := f.servers[0].sweepPointKey(req.point(i))
		if err != nil {
			t.Fatal(err)
		}
		m, _, _ := f.servers[0].peers.Route(key)
		owned[m]++
	}
	if owned[1] == 0 {
		t.Skip("hash split left replica 1 with no rows (vanishingly unlikely)")
	}

	for pass, tc := range []struct {
		replica          int
		misses, forwards uint64
	}{
		// Replica 0 computes its own rows and forwards the rest, which
		// replica 1 computes: one miss per row fleet-wide.
		{0, uint64(len(req.Values)), owned[1]},
		// Replica 1 holds its rows and forwards the rest to replica 0,
		// which holds them too: nothing is computed.
		{1, 0, owned[0]},
	} {
		misses0, fwd0 := cacheMisses.Value(), peerForwards.Value()
		code, got, err := fleetPost(f.urls[tc.replica], "/v1/sweep", body)
		if err != nil || code != http.StatusOK {
			t.Fatalf("pass %d: status %d, err %v: %s", pass, code, err, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: replica %d stream differs from single instance:\ngot  %q\nwant %q", pass, tc.replica, got, want)
		}
		if m, fw := cacheMisses.Value()-misses0, peerForwards.Value()-fwd0; m != tc.misses || fw != tc.forwards {
			t.Errorf("pass %d: %d misses and %d forwards fleet-wide, want %d and %d", pass, m, fw, tc.misses, tc.forwards)
		}
	}
}
