// Package benchsuite defines the hot-path benchmarks once, as plain
// func(*testing.B) bodies, so `go test -bench` (bench_test.go at the
// module root) and `gbd-bench` (the committed BENCH_*.json snapshots and
// the CI regression gate) measure exactly the same code.
//
// All lists them in snapshot order. A benchmark that only `go test
// -bench` runs — the figure regenerations, the S-approach ablation, the
// coverage and tracking paths — stays in bench_test.go.
package benchsuite

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/fabric"
	"github.com/groupdetect/gbd/internal/fabric/chaos"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/infer"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/placement"
	"github.com/groupdetect/gbd/internal/serve"
	"github.com/groupdetect/gbd/internal/sim"
)

// Benchmark is one named body of the suite.
type Benchmark struct {
	Name string
	Fn   func(b *testing.B)
}

// All is the suite in the order every BENCH_*.json snapshot lists it.
var All = []Benchmark{
	{"SimulationSingleTrial", SimulationSingleTrial},
	{"SimulationSingleTrialLegacy", SimulationSingleTrialLegacy},
	{"LegacyStreamAt", LegacyStreamAt},
	{"FaultyTrial", FaultyTrial},
	{"InferTrial", InferTrial},
	{"LossyDelivery", LossyDelivery},
	{"MSApproachConvolution", MSApproachConvolution},
	{"CommCheck", CommCheck},
	{"ServedAnalyzeCold", ServedAnalyzeCold},
	{"ServedAnalyzeCached", ServedAnalyzeCached},
	{"ServedAnalyzeConcurrent", ServedAnalyzeConcurrent},
	{"ServedBatch", ServedBatch},
	{"PeerForwardedHit", PeerForwardedHit},
	{"CoordinatorFanout", CoordinatorFanout},
	{"CoordinatorFanoutDegraded", CoordinatorFanoutDegraded},
	{"PlacementGreedy", PlacementGreedy},
}

// SimulationSingleTrial isolates the per-trial cost (deployment, spatial
// index, 20 sensing periods) under the counter-based philox scheme — the
// headline number the -compare gate tracks.
func SimulationSingleTrial(b *testing.B) {
	cfg := sim.Config{Params: detect.Defaults(), Trials: 1, Workers: 1, RNG: field.SchemePhilox}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// SimulationSingleTrialLegacy is the same trial under the default legacy
// scheme. Its per-trial reseed (LegacyStreamAt) is the gap to the philox
// trial; kept as the before/after contrast and to catch regressions in
// the compatibility path.
func SimulationSingleTrialLegacy(b *testing.B) {
	cfg := sim.Config{Params: detect.Defaults(), Trials: 1, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// LegacyStreamAt isolates the legacy scheme's per-stream setup: one
// Stream.At reseed of the lagged-Fibonacci generator plus one draw, the
// cost each legacy trial and each placement channel pays before it
// samples anything.
func LegacyStreamAt(b *testing.B) {
	s := field.NewStream()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.At(field.SchemeLegacy, 1, int64(i)).Uint64()
	}
}

// FaultyTrial measures one full fault-injection trial: Bernoulli node
// death plus lossy multi-hop delivery of every report.
func FaultyTrial(b *testing.B) {
	cfg := sim.Config{
		Params:    detect.Defaults(),
		Trials:    1,
		Faults:    faults.Bernoulli{DeadFrac: 0.2},
		CommRange: 6000,
		Loss: netsim.LossModel{
			PerHopDelivery: 0.9,
			MaxRetries:     2,
			PerHop:         10 * time.Second,
			Backoff:        5 * time.Second,
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunTrial(cfg, i); err != nil {
			b.Fatal(err)
		}
	}
}

// InferTrial measures one closed-loop inference trial, the degraded
// workload's inference point: Bernoulli node death, every report and a
// status beacon per alive sensor per period over the flat lossy uplink,
// and the failure inferencer scored against the alive mask each period.
func InferTrial(b *testing.B) {
	cfg := sim.Config{
		Params:   detect.Defaults(),
		Trials:   1,
		RNG:      field.SchemePhilox,
		Faults:   faults.Bernoulli{DeadFrac: 0.2},
		PDeliver: 0.9,
		Beacons:  true,
		Infer:    &infer.Options{},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunTrial(cfg, i); err != nil {
			b.Fatal(err)
		}
	}
}

// LossyDelivery measures the per-report delivery classification hot path
// of the fault-injection subsystem: greedy routing plus per-hop Bernoulli
// retransmission over the ONR-scale network.
func LossyDelivery(b *testing.B) {
	bounds := geom.Square(32000)
	rng := field.NewRand(1)
	pts, err := field.Uniform(240, bounds, rng)
	if err != nil {
		b.Fatal(err)
	}
	net, err := netsim.New(pts, 6000, bounds)
	if err != nil {
		b.Fatal(err)
	}
	loss := netsim.LossModel{
		PerHopDelivery: 0.8,
		MaxRetries:     2,
		PerHop:         10 * time.Second,
		Backoff:        5 * time.Second,
		Budget:         time.Minute,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := net.Send(i%len(pts), 0, loss, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// MSApproachConvolution measures the default (convolution) M-S-approach
// evaluator at the planned 99%-accuracy truncation, N = 240 — the
// "minutes, not days" side of the paper's §3.4.5 timing claim.
func MSApproachConvolution(b *testing.B) {
	p := detect.Defaults().WithN(240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := detect.MSApproach(p, detect.MSOptions{Gh: 6, G: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// CommCheck measures the A3 communication verification: building the
// 240-node unit-disk graph and evaluating delivery to a central base.
func CommCheck(b *testing.B) {
	bounds := geom.Square(32000)
	pts, err := field.Uniform(240, bounds, field.NewRand(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net, err := netsim.New(pts, 6000, bounds)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Delivery(0, 10*time.Second, time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// servedAnalyze posts one /v1/analyze request and discards the body.
func servedAnalyze(url string) error {
	resp, err := http.Post(url+"/v1/analyze", "application/json",
		strings.NewReader(`{"scenario":{}}`))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// ServedAnalyzeCold measures a full served analysis with caching
// disabled: HTTP round trip + canonicalization + admission + the
// M-S-approach compute, every iteration.
func ServedAnalyzeCold(b *testing.B) {
	ts := httptest.NewServer(serve.New(serve.Config{CacheEntries: -1}).Handler())
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := servedAnalyze(ts.URL); err != nil {
			b.Fatal(err)
		}
	}
}

// replayBody is a resettable ReadCloser over fixed bytes, letting one
// http.Request be replayed without per-iteration allocation.
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

// discardRW is the minimal ResponseWriter: headers land in one reused
// map, bodies are dropped, and the last status code is kept for checks.
type discardRW struct {
	h    http.Header
	code int
}

func (w *discardRW) Header() http.Header         { return w.h }
func (w *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardRW) WriteHeader(code int)        { w.code = code }

// ServedAnalyzeCached measures the server-side cache-hit path in
// isolation — handler dispatch, raw-body digest, LRU lookup, rendered
// bytes out — by driving the handler directly with a replayed request.
// The HTTP transport cost lives in the Cold and Concurrent benchmarks;
// this one is the near-zero-alloc number the -compare gate tracks.
func ServedAnalyzeCached(b *testing.B) {
	h := serve.New(serve.Config{}).Handler()
	body := &replayBody{data: []byte(`{"scenario":{}}`)}
	req := httptest.NewRequest("POST", "/v1/analyze", body)
	w := &discardRW{h: make(http.Header)}
	// Twice: the first populates the canonical entry, the second the
	// raw-bytes alias.
	for i := 0; i < 2; i++ {
		body.off = 0
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			b.Fatalf("populate: status %d", w.code)
		}
	}
	if got := w.h.Get("X-Cache"); got != "hit" {
		b.Fatalf("populate did not reach the hit path: X-Cache %q", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.off = 0
		h.ServeHTTP(w, req)
	}
}

// ServedAnalyzeConcurrent measures cached throughput under concurrent
// clients (RunParallel drives GOMAXPROCS goroutines).
func ServedAnalyzeConcurrent(b *testing.B) {
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer ts.Close()
	if err := servedAnalyze(ts.URL); err != nil { // populate
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := servedAnalyze(ts.URL); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// ServedBatch measures the all-hit /v1/batch path: one request, four
// items, four cache lookups, four rendered lines — the amortized
// per-request cost a coordinator or loadgen pays for batching instead of
// four standalone round trips.
func ServedBatch(b *testing.B) {
	h := serve.New(serve.Config{}).Handler()
	batch := `{"items":[` +
		`{"op":"analyze","request":{"scenario":{}}},` +
		`{"op":"analyze","request":{"scenario":{"n":100}}},` +
		`{"op":"latency","request":{"scenario":{}}},` +
		`{"op":"design","request":{"scenario":{},"target_prob":0.95}}]}`
	body := &replayBody{data: []byte(batch)}
	req := httptest.NewRequest("POST", "/v1/batch", body)
	w := &discardRW{h: make(http.Header)}
	// Twice: the first populates every item's cache entry, the second
	// must be all hits.
	for i := 0; i < 2; i++ {
		body.off = 0
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			b.Fatalf("populate: status %d", w.code)
		}
	}
	if got := w.h.Get("X-Cache"); got != "hit=4,miss=0,forward=0,error=0" {
		b.Fatalf("populate did not reach the all-hit path: X-Cache %q", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.off = 0
		h.ServeHTTP(w, req)
	}
}

// PeerForwardedHit measures the sharded fleet's forwarded-hit path: a
// two-replica fleet where the edge replica's cache is disabled, so every
// iteration pays the full owner-computes hop — local routing, the peer
// HTTP round trip, and the owner's cached lookup.
func PeerForwardedHit(b *testing.B) {
	var urls []string
	var lns []net.Listener
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		cfg := serve.Config{Peers: urls, Self: urls[i]}
		if i == 0 {
			cfg.CacheEntries = -1 // the edge must re-forward every iteration
		}
		hs := &http.Server{Handler: serve.New(cfg).Handler()}
		go hs.Serve(ln)
		defer hs.Close()
	}
	// Find a body the edge replica forwards (its key is owned by the
	// peer); the probe also warms the owner's cache.
	var body string
	for n := 60; n < 400 && body == ""; n += 2 {
		cand := fmt.Sprintf(`{"scenario":{"n":%d}}`, n)
		resp, err := http.Post(urls[0]+"/v1/analyze", "application/json", strings.NewReader(cand))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if strings.HasPrefix(resp.Header.Get("X-Cache"), "forward-") {
			body = cand
		}
	}
	if body == "" {
		b.Fatal("no sampled key routed to the peer")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(urls[0]+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// coordinatorBench runs one full fan-out campaign (12 points, 4 shards)
// over the given worker URLs with a fresh ledger per iteration.
func coordinatorBench(b *testing.B, workers []string) {
	b.Helper()
	req := serve.SweepRequest{Axis: serve.AxisN, Trials: 50, Seed: 7}
	for n := 60; n < 300; n += 20 {
		req.Values = append(req.Values, float64(n))
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := fabric.Config{
			Workers:          workers,
			Request:          req,
			LedgerPath:       filepath.Join(dir, fmt.Sprintf("ledger-%d.json", i)),
			ShardSize:        3,
			Retries:          10,
			RetryBackoff:     time.Millisecond,
			StallTimeout:     10 * time.Second,
			MaxHedges:        0,
			CircuitThreshold: 2,
			CircuitCooldown:  10 * time.Millisecond,
		}
		c, err := fabric.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// CoordinatorFanout measures a distributed sweep campaign over a healthy
// 3-worker fleet: shard dispatch, NDJSON reassembly, and ledger
// persistence on top of the raw sweep compute.
func CoordinatorFanout(b *testing.B) {
	var workers []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
		defer ts.Close()
		workers = append(workers, ts.URL)
	}
	coordinatorBench(b, workers)
}

// CoordinatorFanoutDegraded is the same campaign with one of the three
// workers answering 503 on every other request: the price of retries,
// backoff, and circuit breaking relative to the clean fleet.
func CoordinatorFanoutDegraded(b *testing.B) {
	var workers []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
		defer ts.Close()
		workers = append(workers, ts.URL)
	}
	p, err := chaos.Start(chaos.Config{Seed: 5, Target: workers[2], Err503Every: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	workers[2] = p.URL()
	coordinatorBench(b, workers)
}

// PlacementGreedy measures one full lazy-greedy placement solve — panel
// precompute, heap-driven selection, and the placed-vs-uniform comparison
// — on a small instance (20 sensors, 12x12 grid, 200 trials) sized so an
// iteration is milliseconds, not seconds.
func PlacementGreedy(b *testing.B) {
	cfg := placement.Config{
		Base:     detect.Defaults().WithN(20),
		GridCols: 12, GridRows: 12,
		Trials:  200,
		Workers: 1,
		RNG:     field.SchemePhilox,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := placement.Place(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
