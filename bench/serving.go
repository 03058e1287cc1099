package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/serve"
)

// serveSpec is an open-loop serving workload against the fleet.
type serveSpec struct {
	stream  func(seed int64) stream
	cache   int     // serve.Config.CacheEntries
	r1, r2  float64 // the two fixed rates, requests per second
	limitMs float64 // the p99 limit max_rate_rps must hold
	lo, hi  float64 // the max_rate_rps bisection bracket
	// prewarm fills the fresh fleet's caches during set-up.
	prewarm func(ctx context.Context, f *fleet, c *identity, seed int64) error
}

// hotSpec sizes serve-hot against its measured capacity of about 20000
// requests/s on 2 cores: both fixed rates stay under half of it.
var hotSpec = serveSpec{
	stream: func(seed int64) stream { return newHotStream(seed) },
	r1:     2000, r2: 8000, limitMs: 25, lo: 8000, hi: 32000,
	prewarm: prewarmHot,
}

// coldSpec sizes serve-cold against its measured capacity of 500 to 700
// requests/s on 2 cores. The 256-entry caches make the run miss, insert
// and evict.
var coldSpec = serveSpec{
	stream: func(seed int64) stream { return newColdStream(seed) },
	cache:  256, r1: 100, r2: 200, limitMs: 50, lo: 200, hi: 1200,
	prewarm: prewarmCold(256),
}

// bisectProbes is how many probes the max-rate bisection makes.
const bisectProbes = 5

// Shares of --seconds spent at r1, at r2, at saturation and in the
// bisection probes, and in the untimed open-loop warm-up at r1 that
// precedes them. The timed phase is one round per probe: a chunk at r1,
// a chunk at r2, a closed-loop saturation chunk, then the probe.
// Spreading the chunks over the whole run samples the slow and fast
// spells a 2-core VM goes through, which one block would catch or miss
// as a whole. The gated metrics, throughput at saturation and p50 at r2,
// get most of the time: on a shared host the speed of the fleet drifts
// in spells of several seconds, and only a long measurement averages
// them out.
const (
	shareR1     = 0.05
	shareR2     = 0.2
	shareSat    = 0.5
	shareProbes = 0.25
	shareWarmup = 0.025
)

// satSlices is how many consecutive closed-loop slices a round's
// saturation chunk is cut into; throughput_per_s is the median over all
// slices of the run.
const satSlices = 4

// prewarmHot sends every pool body to every replica twice, closed loop:
// the first call computes or forwards, the second registers the raw-body
// alias, so the timed phase finds every key local on both replicas.
func prewarmHot(ctx context.Context, f *fleet, c *identity, seed int64) error {
	s := newHotStream(seed)
	for _, it := range s.pool {
		for rep := 0; rep < replicas; rep++ {
			for k := 0; k < 2; k++ {
				rq := single(it)
				body, err := f.do(ctx, rep, rq)
				if err == nil {
					err = c.check(rq, body)
				}
				if err == nil && string(it.body) == `{"scenario":{}}` {
					rq.wantProb = defaultProb
					err = checkProb(rq, body)
				}
				if err != nil {
					return fmt.Errorf("prewarm: %w", err)
				}
			}
		}
	}
	return nil
}

// prewarmCold returns a set-up that sends n fresh arrivals closed loop;
// with n at the cache size the timed phase starts with full caches that
// evict. The set-up stream has a fixed seed, so set-up does the same work
// whatever the run's seed.
func prewarmCold(n int) func(ctx context.Context, f *fleet, c *identity, seed int64) error {
	return func(ctx context.Context, f *fleet, c *identity, _ int64) error {
		s := newColdStream(-1)
		for i := 0; i < n; i++ {
			rq := s.next()
			body, err := f.do(ctx, i%replicas, rq)
			if err == nil {
				err = c.check(rq, body)
			}
			if err != nil {
				return fmt.Errorf("prewarm: %w", err)
			}
		}
		return nil
	}
}

// checkProb compares the rendered detection_prob with the expected value
// bit for bit.
func checkProb(rq *request, body []byte) error {
	var got struct {
		DetectionProb float64 `json:"detection_prob"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: decode answer: %w", rq.path, err)
	}
	if got.DetectionProb != rq.wantProb {
		return fmt.Errorf("%s %s: detection_prob %v, want %v", rq.path, rq.body, got.DetectionProb, rq.wantProb)
	}
	return nil
}

// recheckAnalyze re-computes a served analysis with a direct
// detect.MSApproach and compares every number bit for bit.
func recheckAnalyze(sc *scenarioParams, body []byte) error {
	var got struct {
		DetectionProb float64 `json:"detection_prob"`
		RawTail       float64 `json:"raw_tail"`
		Mass          float64 `json:"mass"`
		Gh, G         int
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("recheck: decode answer: %w", err)
	}
	p := detect.Defaults().WithN(sc.n).WithK(sc.k).WithV(sc.v)
	want, err := detect.MSApproach(p, detect.MSOptions{})
	if err != nil {
		return fmt.Errorf("recheck %s: %w", sc.json(), err)
	}
	if got.DetectionProb != want.DetectionProb || got.RawTail != want.RawTail || got.Mass != want.Mass ||
		got.Gh != want.Gh || got.G != want.G {
		return fmt.Errorf("recheck %s: served (%v, %v, %v, %d, %d), direct (%v, %v, %v, %d, %d)", sc.json(),
			got.DetectionProb, got.RawTail, got.Mass, got.Gh, got.G,
			want.DetectionProb, want.RawTail, want.Mass, want.Gh, want.G)
	}
	return nil
}

// runServe runs an open-loop serving workload: setupRounds fresh fleets
// with their caches pre-warmed (set-up; the last one is kept), an untimed
// open-loop warm-up, then the timed phases at r1, r2 and the max-rate
// bisection.
func runServe(ctx context.Context, rc runConfig, spec serveSpec) (*report, error) {
	r := newReport()
	conns := max(1, runtime.GOMAXPROCS(0)/replicas)
	ids := newIdentity()
	var f *fleet
	var setups []float64
	for k := 0; k < setupRounds; k++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(serve.Config{CacheEntries: spec.cache}, conns); err != nil {
			return nil, err
		}
		if err := spec.prewarm(ctx, f, ids, rc.seed); err != nil {
			f.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()

	var (
		mu       sync.Mutex
		rechecks []func() error
		firstErr error
	)
	send := func(ctx context.Context, lane int, rq *request) error {
		body, err := f.do(ctx, lane, rq)
		if err == nil {
			err = ids.check(rq, body)
		}
		if err == nil && rq.wantProb != 0 {
			err = checkProb(rq, body)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if err == nil && rq.recheck != nil {
			rechecks = append(rechecks, func() error { return recheckAnalyze(rq.recheck, body) })
		}
		return err
	}
	seconds, rounds := rc.seconds.Seconds(), float64(bisectProbes)
	probeWin := dur(shareProbes * seconds / rounds)
	s := spec.stream(rc.seed)
	run := func(rate float64, window, grace time.Duration) summary {
		loop := openLoop{lanes: replicas, workers: conns, grace: grace, reserve: int(spec.hi * probeWin.Seconds())}
		return runOpenLoop(ctx, loop, rate, window, s.next, send).summarize()
	}

	run(spec.r1, dur(shareWarmup*seconds), time.Second)
	f.trace.Store(rc.tr)
	d := obsDelta{before: obs.Default.Snapshot()}
	start := time.Now()
	var r1s, r2s, probes []summary
	var sats []float64
	satOK, satFailed := 0, 0
	maxRate, steps := bisect(spec.lo, spec.hi, spec.limitMs, bisectProbes, func(rate float64) (float64, bool) {
		r1s = append(r1s, run(spec.r1, dur(shareR1*seconds/rounds), time.Second))
		r2s = append(r2s, run(spec.r2, dur(shareR2*seconds/rounds), time.Second))
		satWin := dur(shareSat * seconds / rounds / satSlices)
		for k := 0; k < satSlices; k++ {
			ok, failed := runClosedLoop(ctx, replicas, conns, satWin, s.next, send)
			sats = append(sats, float64(ok)/satWin.Seconds())
			satOK, satFailed = satOK+ok, satFailed+failed
		}
		ph := run(rate, probeWin, dur(2*spec.limitMs/1000))
		ph.lat = nil
		probes = append(probes, ph)
		return ph.p99All, ph.failed == 0 && ph.p99All <= spec.limitMs
	})
	wall := time.Since(start)
	d.after = obs.Default.Snapshot()
	f.trace.Store(nil)

	for _, chk := range rechecks {
		if err := chk(); err != nil {
			r.fail("%v", err)
		}
	}
	if ids.mismatches > 0 {
		r.fail("%d of %d repeated bodies got different bytes (first: %s)", ids.mismatches, ids.compared, ids.example)
	}

	// Operations: every fixed-rate arrival, and every probe arrival that
	// was sent. A probe past capacity leaves arrivals unsent or late by
	// design; only its errors count as failures.
	fixed := slices.Concat(r1s, r2s)
	for _, ph := range fixed {
		r.attempted += ph.ok + ph.failed + ph.unanswered + ph.unsent
		r.failed += ph.failed + ph.unanswered + ph.unsent
	}
	for _, ph := range probes {
		r.attempted += ph.ok + ph.failed + ph.unanswered
		r.failed += ph.failed
	}
	r.attempted += satOK + satFailed
	r.failed += satFailed
	if firstErr != nil {
		r.notef("first failure: %v", firstErr)
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	l1, p99r1 := pooled(r1s)
	l2, p99r2 := pooled(r2s)
	r.metrics["setup_s"] = median(setups)
	r.metrics["throughput_per_s"] = median(sats)
	r.metrics["p50_ms"] = median(l2)
	r.metrics["peak_rss_mb"] = rss
	r.notef("setup_s: median of %d set-ups, each a fresh %d-replica fleet with its caches pre-warmed %.4f", setupRounds, replicas, setups)
	r.notef("throughput_per_s: answered requests/s with all %d connections kept busy, median of %d slices %.0f",
		replicas*conns, len(sats), sats)
	r.notef("max_rate_rps = %.1f req/s (not gated): highest rate holding a windowed p99 <= %g ms, bisected in [%g, %g] with %d probes of %.1f s",
		maxRate, spec.limitMs, spec.lo, spec.hi, bisectProbes, probeWin.Seconds())
	for _, st := range steps {
		r.notef("  probe %8.1f req/s: p99 %8.3f ms  %s", st.rate, st.p99, map[bool]string{true: "holds", false: "misses"}[st.pass])
	}
	if !(maxRate > spec.lo && maxRate < spec.hi) {
		r.notef("WARNING: max_rate_rps %.1f is not strictly inside [%g, %g]", maxRate, spec.lo, spec.hi)
	}
	if spec.r2 >= maxRate/2 {
		r.notef("WARNING: r2 = %g req/s is not below half of max_rate_rps %.1f", spec.r2, maxRate)
	}
	r.notef("p50_ms: open loop at r2 = %g req/s, %d answered requests in %d chunks", spec.r2, len(l2), len(r2s))
	r.notef("p99_ms = %.4f ms: median of the %d chunks' p99s at r2 (not gated)", p99r2, len(r2s))
	r.notef("p50_ms.r1 = %.4f ms, p99_ms.r1 = %.4f ms (median of chunk p99s) at r1 = %g req/s, %d answered (not gated)",
		median(l1), p99r1, spec.r1, len(l1))
	r.notef("error_ratio = %g (%d failed of %d attempted)", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	r.notef("check: %d repeated bodies byte-identical to their first answer across replicas and batches", ids.compared)
	if len(rechecks) > 0 {
		r.notef("check: %d served analyses re-computed bit-equal with detect.MSApproach", len(rechecks))
	}

	// Generator validity is judged on the fixed-rate phases, whose
	// latencies are reported; a probe past capacity starves the pacer of
	// CPU by design.
	var over, dispatched int
	for _, ph := range fixed {
		over, dispatched = over+ph.lateOver, dispatched+ph.dispatched
	}
	lateShare := ratio(float64(over), float64(dispatched))
	if lateShare > 0.01 {
		r.notef("INVALID generator: %.2f%% of r1/r2 arrivals dispatched over %v late (lateness p99 above it)", 100*lateShare, lateLimit)
	}
	var waitSum, doneSum time.Duration
	for _, ph := range r2s {
		waitSum += ph.wait
		doneSum += ph.done
	}
	var inflightMax int64
	for _, ph := range slices.Concat(fixed, probes) {
		inflightMax = max(inflightMax, ph.inflightMax)
	}
	r.notef("generator: %d connections, at most %d requests in flight, %.3f%% of r1/r2 arrivals dispatched over %v late",
		replicas*conns, inflightMax, 100*lateShare, lateLimit)

	if tr := rc.tr; tr != nil {
		layerFromObs(d, r.metrics)
		for _, k := range []string{"hit", "miss", "forward", "batch", "peer", "analyze", "simulate", "place"} {
			r.metrics["serve.handler."+k+".per_busy_s"] = tr.perBusySecond("handler." + k)
		}
		r.metrics["http.handler_share"] = ratio(tr.busyOf("handler").total.Seconds(), tr.busyOf("client").total.Seconds())
		r.metrics["http.queue_share"] = ratio(waitSum.Seconds(), doneSum.Seconds())
		r.metrics["loadgen.late_over_1ms_share"] = lateShare
		r.metrics["loadgen.inflight.max"] = float64(inflightMax)
		r.notef("traced phase: %.2f s", wall.Seconds())
	}
	return r, nil
}

func dur(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }

// pooled returns every answered latency of the chunks, in milliseconds,
// and the median of the chunks' p99s.
func pooled(chunks []summary) ([]float64, float64) {
	var all, p99s []float64
	for _, c := range chunks {
		all = append(all, c.lat...)
		p99s = append(p99s, quantile(c.lat, 0.99))
	}
	return all, median(p99s)
}
