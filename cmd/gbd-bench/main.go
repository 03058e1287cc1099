// Command gbd-bench runs the hot-path benchmarks in-process via
// testing.Benchmark and emits a machine-readable JSON report, so CI and
// the committed BENCH_*.json snapshots (BENCH_PR2.json through
// BENCH_PR8.json) use the same measurement path as `go test -bench`. The
// benchmark bodies mirror bench_test.go exactly; this command exists
// because test binaries cannot be imported, while the tracked snapshots
// must be regenerable with one command.
//
// -compare gates the run against a committed snapshot: if a gated
// benchmark (SimulationSingleTrial, FaultyTrial, ServedAnalyzeCached)
// regresses more than 10% in ns/op against the baseline file, the command
// exits non-zero. Each gated benchmark runs gateRuns times and both the
// report and the gate keep its fastest run, so one run slowed by a noisy
// neighbour does not trip the gate. CI runs `gbd-bench -compare
// BENCH_PR13.json` so the headline numbers cannot silently drift back.
// ServedBatch and PeerForwardedHit track the fleet surfaces
// (informational — HTTP-path variance is too wide to gate on).
//
// Usage:
//
//	gbd-bench [-out BENCH_PR15.json] [-compare BENCH_PR13.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
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
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/placement"
	"github.com/groupdetect/gbd/internal/serve"
	"github.com/groupdetect/gbd/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gbd-bench:", err)
		os.Exit(1)
	}
}

// Result is one benchmark measurement in the emitted report.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// benchmarks lists the hot-path measurements the PR-2 acceptance criteria
// track. Bodies mirror the same-named functions in bench_test.go.
var benchmarks = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"SimulationSingleTrial", benchSimulationSingleTrial},
	{"SimulationSingleTrialLegacy", benchSimulationSingleTrialLegacy},
	{"FaultyTrial", benchFaultyTrial},
	{"LossyDelivery", benchLossyDelivery},
	{"MSApproachConvolution", benchMSApproachConvolution},
	{"CommCheck", benchCommCheck},
	{"ServedAnalyzeCold", benchServedAnalyzeCold},
	{"ServedAnalyzeCached", benchServedAnalyzeCached},
	{"ServedAnalyzeConcurrent", benchServedAnalyzeConcurrent},
	{"ServedBatch", benchServedBatch},
	{"PeerForwardedHit", benchPeerForwardedHit},
	{"CoordinatorFanout", benchCoordinatorFanout},
	{"CoordinatorFanoutDegraded", benchCoordinatorFanoutDegraded},
	{"PlacementGreedy", benchPlacementGreedy},
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gbd-bench", flag.ContinueOnError)
	out := fs.String("out", "", "write the JSON report to this file instead of stdout")
	match := fs.String("bench", "", "run only benchmarks whose name contains this substring")
	compare := fs.String("compare", "", "baseline JSON report; exit non-zero if a gated benchmark's fastest run regresses >10% against it")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := obsFlags.Start("gbd-bench", args)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()
	// LIFO: RecordOutcome classifies err into the manifest status before
	// Close stamps and writes the manifest.
	defer func() { sess.RecordOutcome(err) }()
	var runs []Result
	for _, bm := range benchmarks {
		if *match != "" && !strings.Contains(bm.name, *match) {
			continue
		}
		reps := 1
		if gated[bm.name] {
			reps = gateRuns
		}
		for range reps {
			r := testing.Benchmark(bm.fn)
			runs = append(runs, Result{
				Name:        bm.name,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				Iterations:  r.N,
			})
			fmt.Fprintf(os.Stderr, "%-24s %12.1f ns/op %8d allocs/op (%d iterations)\n",
				bm.name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp(), r.N)
		}
	}
	if len(runs) == 0 {
		return fmt.Errorf("no benchmark name contains %q", *match)
	}
	buf, err := json.MarshalIndent(fastest(runs), "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "" {
		if _, err = os.Stdout.Write(buf); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	if *compare != "" {
		return compareBaseline(*compare, runs)
	}
	return nil
}

// gateRuns is how many times each gated benchmark runs. Noise on a shared
// host only ever slows a run down, so the fastest of a few is the stable
// estimate a tight threshold needs.
const gateRuns = 3

// fastest keeps one result per benchmark name, its fastest run, in the
// order the names first appear.
func fastest(runs []Result) []Result {
	var out []Result
	at := make(map[string]int, len(runs))
	for _, r := range runs {
		i, seen := at[r.Name]
		switch {
		case !seen:
			at[r.Name] = len(out)
			out = append(out, r)
		case r.NsPerOp < out[i].NsPerOp:
			out[i] = r
		}
	}
	return out
}

// gated names the benchmarks the -compare regression gate enforces: the
// plain and the fault-injection trial through the one trial kernel, and
// the served cache hit. The other measurements are informational —
// machine-to-machine variance on the HTTP and coordinator benchmarks is
// too wide to gate on.
var gated = map[string]bool{
	"SimulationSingleTrial": true,
	"FaultyTrial":           true,
	"ServedAnalyzeCached":   true,
}

// compareBaseline fails if the fastest of a gated benchmark's runs is
// more than 10% slower (ns/op) than the same-named entry in the baseline
// report. Gated names missing from either side are an error: a gate that
// silently skips is not a gate.
func compareBaseline(path string, runs []Result) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var baseline []Result
	if err := json.Unmarshal(blob, &baseline); err != nil {
		return fmt.Errorf("compare %s: %w", path, err)
	}
	base := make(map[string]Result, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	cur := make(map[string]Result, len(runs))
	for _, r := range fastest(runs) {
		cur[r.Name] = r
	}
	var failed []string
	for name := range gated {
		b, ok := base[name]
		if !ok {
			return fmt.Errorf("compare: baseline %s has no %q entry", path, name)
		}
		c, ok := cur[name]
		if !ok {
			return fmt.Errorf("compare: this run did not measure gated benchmark %q (check -bench)", name)
		}
		ratio := c.NsPerOp / b.NsPerOp
		verdict := "ok"
		if ratio > 1.10 {
			verdict = "REGRESSION"
			failed = append(failed, name)
		}
		fmt.Fprintf(os.Stderr, "compare %-24s %12.1f -> %12.1f ns/op (%+.1f%%) %s\n",
			name, b.NsPerOp, c.NsPerOp, (ratio-1)*100, verdict)
	}
	if len(failed) > 0 {
		return fmt.Errorf("benchmarks regressed >10%% vs %s: %s", path, strings.Join(failed, ", "))
	}
	return nil
}

// benchSimulationSingleTrial measures the per-trial cost under the
// counter-based philox scheme — the PR-7 headline the -compare gate
// tracks. benchSimulationSingleTrialLegacy keeps the default scheme's
// reseed-dominated floor visible as the before/after contrast.
func benchSimulationSingleTrial(b *testing.B) {
	cfg := sim.Config{Params: detect.Defaults(), Trials: 1, Workers: 1, RNG: field.SchemePhilox}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSimulationSingleTrialLegacy(b *testing.B) {
	cfg := sim.Config{Params: detect.Defaults(), Trials: 1, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFaultyTrial(b *testing.B) {
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

func benchLossyDelivery(b *testing.B) {
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

func benchMSApproachConvolution(b *testing.B) {
	p := detect.Defaults().WithN(240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := detect.MSApproach(p, detect.MSOptions{Gh: 6, G: 3}); err != nil {
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

// benchServedAnalyzeCold measures a full served analysis with caching
// disabled: HTTP round trip + canonicalization + admission + the
// M-S-approach compute, every iteration.
func benchServedAnalyzeCold(b *testing.B) {
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

// benchServedAnalyzeCached measures the server-side cache-hit path in
// isolation — handler dispatch, raw-body digest, LRU lookup, rendered
// bytes out — by driving the handler directly with a replayed request.
// The HTTP transport cost lives in the Cold and Concurrent benchmarks;
// this one is the near-zero-alloc number the -compare gate tracks.
func benchServedAnalyzeCached(b *testing.B) {
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

// benchServedBatch measures the all-hit /v1/batch path: one request, four
// items, four cache lookups, four rendered lines — the amortized
// per-request cost a coordinator or loadgen pays for batching instead of
// four standalone round trips.
func benchServedBatch(b *testing.B) {
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

// benchPeerForwardedHit measures the sharded fleet's forwarded-hit path:
// a two-replica fleet where the edge replica's cache is disabled, so
// every iteration pays the full owner-computes hop — local routing, the
// peer HTTP round trip, and the owner's cached lookup.
func benchPeerForwardedHit(b *testing.B) {
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

// benchServedAnalyzeConcurrent measures cached throughput under
// concurrent clients (RunParallel drives GOMAXPROCS goroutines).
func benchServedAnalyzeConcurrent(b *testing.B) {
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

func benchCommCheck(b *testing.B) {
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

// benchPlacementGreedy measures one full lazy-greedy placement solve —
// panel precompute, heap-driven selection, and the placed-vs-uniform
// comparison — on a small instance (20 sensors, 12x12 grid, 200 trials)
// sized so an iteration is milliseconds, not seconds. The PR-10 headline
// for the deployment engine.
func benchPlacementGreedy(b *testing.B) {
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
			Tick:             time.Millisecond,
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

// benchCoordinatorFanout measures a distributed sweep campaign over a
// healthy 3-worker fleet: shard dispatch, NDJSON reassembly, and ledger
// persistence on top of the raw sweep compute.
func benchCoordinatorFanout(b *testing.B) {
	var workers []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
		defer ts.Close()
		workers = append(workers, ts.URL)
	}
	coordinatorBench(b, workers)
}

// benchCoordinatorFanoutDegraded is the same campaign with one of the
// three workers answering 503 on every other request: the price of
// retries, backoff, and circuit breaking relative to the clean fleet.
func benchCoordinatorFanoutDegraded(b *testing.B) {
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
