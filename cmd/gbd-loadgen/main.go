// Command gbd-loadgen drives sustained open-loop traffic at a gbd-server
// fleet and reports what the fleet actually delivered: latency quantiles
// (p50/p99/p999) split by cache outcome, the hit ratio, the 429/503 shed
// budget, and — because correctness under load is the whole point of the
// serving layer — a byte-identity check that every repeat of the same
// request body returned the same bytes as its first answer.
//
// Open-loop means arrivals come from a fixed-rate clock, not from request
// completions: a slow fleet faces a growing backlog exactly as it would
// in production, instead of the closed-loop mercy of one-in-one-out. The
// generator never waits for a response before firing the next arrival.
//
// When a target sheds with Retry-After, the generator honors it: that
// target is skipped until the backoff expires, and arrivals with no
// admissible target are dropped (and counted) rather than queued —
// queueing them would quietly turn the open loop closed.
//
// The traffic mix is deterministic: a fixed pool of analyze bodies
// (seeded, so two runs of the same flags send the same byte streams),
// with every k-th arrival optionally a /v1/batch of two items
// (-batch-every). Targets are taken round-robin, so a sharded fleet sees
// every replica answering for every key — which is what makes the
// byte-identity check a fleet-consistency proof and not a tautology.
//
// -compare gates the cached-path p50 against the committed gbd-bench
// snapshot: the loadgen hit p50 (full HTTP round trip) must stay within
// -compare-factor of the in-process ServedAnalyzeCached ns/op. The
// factor absorbs the transport cost; the gate catches the serving layer
// becoming grossly slower under concurrency than the handler is alone.
//
// Exit status is non-zero when the run failed its budgets: any byte
// mismatch, any status outside {200, 429, 503}, a hit ratio below
// -min-hit-ratio, a shed ratio above -max-shed-ratio, or a -compare
// regression.
//
// Usage:
//
//	gbd-loadgen -targets http://10.0.0.7:8080[,URL...] [flags]
//
// Example (3-replica fleet, 200 arrivals/s for 30s, gated):
//
//	gbd-loadgen -targets http://:8080,http://:8081,http://:8082 \
//	    -rate 200 -duration 30s -batch-every 10 \
//	    -min-hit-ratio 0.5 -max-shed-ratio 0.01 -compare BENCH_PR8.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gbd-loadgen:", err)
		os.Exit(1)
	}
}

// arrival is one clocked request: what was sent, to whom, and what came
// back. Results funnel through a channel so the stats owner is a single
// goroutine and the firing goroutines never share state.
type arrival struct {
	key     string // endpoint + "|" + body: the byte-identity map key
	status  int
	xcache  string
	latency time.Duration
	body    []byte
	err     error
}

// Quantiles is one latency distribution in the report.
type Quantiles struct {
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
	P999  float64 `json:"p999_ms"`
}

// Report is the machine-readable run summary written to stdout.
type Report struct {
	Targets     int     `json:"targets"`
	RatePerSec  float64 `json:"rate_per_sec"`
	DurationSec float64 `json:"duration_sec"`
	Arrivals    int     `json:"arrivals"`
	Dropped     int     `json:"dropped_backoff"`
	Transport   int     `json:"transport_errors"`

	OK         int `json:"status_200"`
	Shed429    int `json:"status_429"`
	Shed503    int `json:"status_503"`
	Unexpected int `json:"status_other"`

	Hits      int     `json:"cache_hits"`
	Forwards  int     `json:"cache_forwards"`
	Misses    int     `json:"cache_misses"`
	HitRatio  float64 `json:"hit_ratio"`
	ShedRatio float64 `json:"shed_ratio"`

	ByteMismatches int `json:"byte_mismatches"`

	Hit Quantiles `json:"latency_hit"`
	All Quantiles `json:"latency_all"`
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("gbd-loadgen", flag.ContinueOnError)
	var (
		targets  = fs.String("targets", "", "comma-separated gbd-server base URLs (required)")
		rate     = fs.Float64("rate", 100, "open-loop arrival rate, requests per second")
		duration = fs.Duration("duration", 10*time.Second, "how long to generate arrivals")
		pool     = fs.Int("body-pool", 8, "distinct analyze bodies in the deterministic pool")
		batchEv  = fs.Int("batch-every", 0, "every k-th arrival is a 2-item /v1/batch (0 = never)")
		seed     = fs.Int64("seed", 1, "body-pool seed (same flags + seed = same byte streams)")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-request timeout")

		minHit  = fs.Float64("min-hit-ratio", 0, "fail if (hits+forwards)/200s falls below this")
		maxShed = fs.Float64("max-shed-ratio", 1, "fail if (429+503)/completed exceeds this")
		compare = fs.String("compare", "", "gbd-bench baseline JSON; gate the hit-path p50 against ServedAnalyzeCached")
		cmpFact = fs.Float64("compare-factor", 1000, "allowed ratio of loadgen hit p50 over the in-process baseline ns/op")
		jsonOut = fs.String("out", "", "also write the JSON report to this file")
	)
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	urls := splitList(*targets)
	if len(urls) == 0 {
		return fmt.Errorf("-targets must list at least one gbd-server URL")
	}
	if *rate <= 0 {
		return fmt.Errorf("-rate must be positive")
	}
	if *pool < 1 {
		return fmt.Errorf("-body-pool must be at least 1")
	}
	sess, err := obsFlags.Start("gbd-loadgen", args)
	if err != nil {
		return err
	}
	defer sess.Finish(&err)
	ctx, cancel := sess.SignalContext(context.Background())
	defer cancel()
	sess.SetSeed(*seed)

	// The deterministic body pool: distinct analyze scenarios drawn from a
	// seeded PRNG, so a sharded fleet sees stable keys it can cache and
	// forward, and two runs with the same seed are byte-for-byte the same
	// offered load.
	rng := field.NewRand(*seed)
	bodies := make([]string, *pool)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"scenario":{"n":%d,"k":%d}}`, 60+rng.Intn(120), 2+rng.Intn(3))
	}

	g := &generator{
		hc:      &http.Client{Timeout: *timeout},
		urls:    urls,
		backoff: make([]time.Time, len(urls)),
		seen:    make(map[string][]byte),
	}
	rep := g.drive(ctx, *rate, *duration, bodies, *batchEv)
	rep.Targets = len(urls)
	rep.RatePerSec = *rate
	rep.DurationSec = duration.Seconds()
	sess.SetParams(rep)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if _, err := w.Write(blob); err != nil {
		return err
	}
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr,
		"gbd-loadgen: %d arrivals (%d dropped in backoff): %d ok / %d shed / %d unexpected; hit ratio %.3f; hit p50 %.2fms p99 %.2fms p999 %.2fms\n",
		rep.Arrivals, rep.Dropped, rep.OK, rep.Shed429+rep.Shed503, rep.Unexpected,
		rep.HitRatio, rep.Hit.P50ms, rep.Hit.P99ms, rep.Hit.P999)

	return gate(rep, *minHit, *maxShed, *compare, *cmpFact)
}

// generator owns the open-loop clock, the per-target Retry-After state,
// and the byte-identity map.
type generator struct {
	hc      *http.Client
	urls    []string
	mu      sync.Mutex
	backoff []time.Time       // target i is inadmissible until backoff[i]
	seen    map[string][]byte // first response bytes per request key
}

// pickTarget returns the first admissible target at or after the
// round-robin position, or -1 when every target is in a Retry-After
// backoff window.
func (g *generator) pickTarget(i int, now time.Time) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for off := 0; off < len(g.urls); off++ {
		t := (i + off) % len(g.urls)
		if now.After(g.backoff[t]) {
			return t
		}
	}
	return -1
}

// shed records a target's Retry-After so subsequent arrivals skip it.
func (g *generator) shed(t int, retryAfter string) {
	sec, err := strconv.Atoi(retryAfter)
	if err != nil || sec <= 0 {
		return
	}
	until := time.Now().Add(time.Duration(sec) * time.Second)
	g.mu.Lock()
	if until.After(g.backoff[t]) {
		g.backoff[t] = until
	}
	g.mu.Unlock()
}

// drive runs the clock for the configured duration, fires arrivals, and
// folds the results into a report.
func (g *generator) drive(ctx context.Context, rate float64, duration time.Duration, bodies []string, batchEvery int) *Report {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	results := make(chan arrival, 1024)
	var wg sync.WaitGroup
	rep := &Report{}

	// The stats owner: a single goroutine folding completions, so the
	// firing goroutines stay stateless.
	var hitLat, allLat []time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range results {
			if a.err != nil {
				rep.Transport++
				continue
			}
			allLat = append(allLat, a.latency)
			switch a.status {
			case http.StatusOK:
				rep.OK++
				hit, fwd, miss := classify(a.xcache)
				rep.Hits += hit
				rep.Forwards += fwd
				rep.Misses += miss
				if hit+fwd > 0 && miss == 0 {
					hitLat = append(hitLat, a.latency)
				}
				if prev, ok := g.seen[a.key]; !ok {
					g.seen[a.key] = a.body
				} else if string(prev) != string(a.body) {
					rep.ByteMismatches++
				}
			case http.StatusTooManyRequests:
				rep.Shed429++
			case http.StatusServiceUnavailable:
				rep.Shed503++
			default:
				rep.Unexpected++
			}
		}
	}()

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.Now().Add(duration)
	i := 0
clock:
	for {
		select {
		case <-ctx.Done():
			break clock
		case now := <-ticker.C:
			if now.After(deadline) {
				break clock
			}
			rep.Arrivals++
			t := g.pickTarget(i, now)
			if t < 0 {
				rep.Dropped++
				i++
				continue
			}
			path, body := "/v1/analyze", bodies[i%len(bodies)]
			if batchEvery > 0 && i%batchEvery == batchEvery-1 {
				path = "/v1/batch"
				body = fmt.Sprintf(`{"items":[{"op":"analyze","request":%s},{"op":"latency","request":%s}]}`,
					bodies[i%len(bodies)], bodies[(i+1)%len(bodies)])
			}
			wg.Add(1)
			go func(t int, path, body string) {
				defer wg.Done()
				results <- g.fire(ctx, t, path, body)
			}(t, path, body)
			i++
		}
	}
	wg.Wait()
	close(results)
	<-done

	completed := rep.OK + rep.Shed429 + rep.Shed503 + rep.Unexpected
	if rep.OK > 0 {
		rep.HitRatio = float64(rep.Hits+rep.Forwards) / float64(rep.Hits+rep.Forwards+rep.Misses)
	}
	if completed > 0 {
		rep.ShedRatio = float64(rep.Shed429+rep.Shed503) / float64(completed)
	}
	rep.Hit = quantiles(hitLat)
	rep.All = quantiles(allLat)
	return rep
}

// fire sends one request and reports the outcome; a shed response updates
// the target's backoff window on the way through.
func (g *generator) fire(ctx context.Context, t int, path, body string) arrival {
	a := arrival{key: path + "|" + body}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.urls[t]+path, strings.NewReader(body))
	if err != nil {
		a.err = err
		return a
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := g.hc.Do(req)
	if err != nil {
		a.err = err
		return a
	}
	a.body, a.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	a.latency = time.Since(start)
	a.status = resp.StatusCode
	a.xcache = resp.Header.Get("X-Cache")
	if a.status == http.StatusTooManyRequests || a.status == http.StatusServiceUnavailable {
		g.shed(t, resp.Header.Get("Retry-After"))
	}
	return a
}

// classify reads an X-Cache header — "hit", "miss", "dedup",
// "forward-<peer>", or the batch aggregate "hit=H,miss=M,forward=F,error=E"
// — into (hits, forwards, misses) counts.
func classify(xcache string) (hit, fwd, miss int) {
	switch {
	case xcache == "hit":
		return 1, 0, 0
	case strings.HasPrefix(xcache, "forward-"):
		return 0, 1, 0
	case strings.Contains(xcache, "="):
		fmt.Sscanf(xcache, "hit=%d,miss=%d,forward=%d", &hit, &miss, &fwd)
		return hit, fwd, miss
	default: // "miss", "dedup", or absent
		return 0, 0, 1
	}
}

// quantiles computes p50/p99/p999 by sorted rank (nearest-rank method).
func quantiles(lat []time.Duration) Quantiles {
	q := Quantiles{Count: len(lat)}
	if len(lat) == 0 {
		return q
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(p float64) float64 {
		i := int(p*float64(len(lat))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return float64(lat[i]) / float64(time.Millisecond)
	}
	q.P50ms, q.P99ms, q.P999 = at(0.50), at(0.99), at(0.999)
	return q
}

// gate enforces the run's budgets and returns the first violation.
func gate(rep *Report, minHit, maxShed float64, compare string, factor float64) error {
	if rep.ByteMismatches > 0 {
		return fmt.Errorf("%d responses differed from the first answer for the same body (fleet is not byte-identical)", rep.ByteMismatches)
	}
	if rep.Unexpected > 0 {
		return fmt.Errorf("%d responses outside {200, 429, 503} (peer failures must never surface as 5xx)", rep.Unexpected)
	}
	if rep.Transport > 0 {
		return fmt.Errorf("%d transport errors (connection refused / timeout)", rep.Transport)
	}
	if rep.HitRatio < minHit {
		return fmt.Errorf("hit ratio %.3f below -min-hit-ratio %.3f", rep.HitRatio, minHit)
	}
	if rep.ShedRatio > maxShed {
		return fmt.Errorf("shed ratio %.3f above -max-shed-ratio %.3f", rep.ShedRatio, maxShed)
	}
	if compare != "" {
		if err := compareBaseline(compare, rep, factor); err != nil {
			return err
		}
	}
	return nil
}

// compareBaseline gates the hit-path p50 against the committed gbd-bench
// snapshot's ServedAnalyzeCached entry. The baseline measures the handler
// alone; the loadgen number includes a real HTTP round trip, so the gate
// allows a generous multiplier and exists to catch order-of-magnitude
// serving regressions under load, not microsecond drift.
func compareBaseline(path string, rep *Report, factor float64) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var baseline []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	}
	if err := json.Unmarshal(blob, &baseline); err != nil {
		return fmt.Errorf("compare %s: %w", path, err)
	}
	var base float64
	for _, r := range baseline {
		if r.Name == "ServedAnalyzeCached" {
			base = r.NsPerOp
		}
	}
	if base <= 0 {
		return fmt.Errorf("compare: %s has no ServedAnalyzeCached entry", path)
	}
	if rep.Hit.Count == 0 {
		return fmt.Errorf("compare: no cache-hit responses to measure (raise -duration or -rate)")
	}
	p50ns := rep.Hit.P50ms * float64(time.Millisecond)
	limit := base * factor
	fmt.Fprintf(os.Stderr, "compare ServedAnalyzeCached %.0f ns/op baseline × %.0f = %.2fms limit; hit p50 %.2fms\n",
		base, factor, limit/float64(time.Millisecond), rep.Hit.P50ms)
	if p50ns > limit {
		return fmt.Errorf("hit p50 %.2fms exceeds %.0f× the ServedAnalyzeCached baseline (%.2fms)",
			rep.Hit.P50ms, factor, limit/float64(time.Millisecond))
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
