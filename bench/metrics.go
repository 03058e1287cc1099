package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/groupdetect/gbd/internal/obs"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	name, unit string
}

// endToEnd is what every workload reports untraced, in BENCHMARK.json
// order. Each workload gives each metric its own reading, stated in
// README.md: throughput is simulated trials per second for campaigns and
// the highest sustainable request rate for the fleet; latency is a
// campaign point for campaigns and one request at rate r2 for the fleet.
// Tail latencies are printed but not listed: on two virtual cores the
// fleet's p99 moves by more than any usable bound between runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what every workload reports traced. A layer the workload
// does not enter reads 0; times are therefore given as shares of the
// timed phase and as calls per busy second, which are 0 for an idle
// layer, rather than as durations.
var perLayer = []metricDef{
	{"detect.share", "%"},
	{"detect.calls_per_busy_s", "1/s"},
	{"detect.cache.pmfs.hit_ratio", "ratio"},
	{"sim.share", "%"},
	{"sim.trials_per_busy_s", "1/s"},
	{"sim.trials", "count"},
	{"netsim.sends_per_trial", "1/trial"},
	{"netsim.retransmissions_per_send", "ratio"},
	{"netsim.routing.resets_per_trial", "1/trial"},
	{"netsim.lost_share", "ratio"},
	{"infer.declarations_per_trial", "1/trial"},
	{"serve.handler.hit.per_busy_s", "1/s"},
	{"serve.handler.miss.per_busy_s", "1/s"},
	{"serve.handler.forward.per_busy_s", "1/s"},
	{"serve.handler.batch.per_busy_s", "1/s"},
	{"serve.handler.peer.per_busy_s", "1/s"},
	{"serve.handler.analyze.per_busy_s", "1/s"},
	{"serve.handler.simulate.per_busy_s", "1/s"},
	{"serve.handler.place.per_busy_s", "1/s"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.cache.evictions_per_req", "ratio"},
	{"serve.admitted", "count"},
	{"serve.queue.depth.max", "count"},
	{"serve.inflight.max", "count"},
	{"serve.rejected", "count"},
	{"serve.dedup.followers", "count"},
	{"peer.forward_share", "ratio"},
	{"peer.forward.failures", "count"},
	{"placement.lazy_hit_ratio", "ratio"},
	{"http.handler_share", "ratio"},
	{"http.queue_share", "ratio"},
	{"loadgen.late_over_1ms_share", "ratio"},
	{"loadgen.inflight.max", "count"},
	{"trace.overhead.setup_s", "ratio"},
	{"trace.overhead.throughput_per_s", "ratio"},
	{"trace.overhead.p50_ms", "ratio"},
	{"trace.overhead.peak_rss_mb", "ratio"},
}

// report is one workload run: its operation counts, failed correctness
// checks, metric values and human-readable notes on how they were taken.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	notes             []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// obsDelta is the change of the program's own metrics across a timed
// phase. All replicas of the fleet run in this process and share the
// registry, so serving counters are fleet-wide.
type obsDelta struct {
	before, after obs.Snapshot
}

func (d obsDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// layerFromObs derives the per-layer metrics the program counts itself.
// High-water gauges are process-wide, not deltas.
func layerFromObs(d obsDelta, m map[string]float64) {
	trials := d.counter("sim.trials")
	sends := d.counter("netsim.send.delivered") + d.counter("netsim.send.late") + d.counter("netsim.send.lost")
	lookups := d.counter("serve.cache.lookups")
	evals, lazy := d.counter("placement.evals"), d.counter("placement.lazy_hits")

	m["detect.cache.pmfs.hit_ratio"] = ratio(d.counter("detect.cache.pmfs.hits"), d.counter("detect.cache.pmfs.lookups"))
	m["sim.trials"] = trials
	m["netsim.sends_per_trial"] = ratio(sends, trials)
	m["netsim.retransmissions_per_send"] = ratio(d.counter("netsim.send.retransmissions"), sends)
	m["netsim.routing.resets_per_trial"] = ratio(d.counter("netsim.routing.resets"), trials)
	m["netsim.lost_share"] = ratio(d.counter("netsim.send.lost"), sends)
	m["infer.declarations_per_trial"] = ratio(d.counter("infer.declarations"), trials)
	m["serve.cache.hit_ratio"] = ratio(d.counter("serve.cache.hits"), lookups)
	m["serve.cache.evictions_per_req"] = ratio(d.counter("serve.cache.evictions"), d.counter("serve.requests"))
	m["serve.admitted"] = d.counter("serve.admitted")
	m["serve.queue.depth.max"] = float64(d.after.Gauges["serve.queue.depth.max"])
	m["serve.inflight.max"] = float64(d.after.Gauges["serve.inflight.max"])
	m["serve.rejected"] = d.counter("serve.rejected.queue") + d.counter("serve.rejected.deadline")
	m["serve.dedup.followers"] = d.counter("serve.dedup.followers")
	m["peer.forward_share"] = ratio(d.counter("serve.peer.forwards"), lookups)
	m["peer.forward.failures"] = d.counter("serve.peer.forward.failures")
	m["placement.lazy_hit_ratio"] = ratio(lazy, evals+lazy)
}

// peakRSSMB is the process's peak resident set, VmHWM in
// /proc/self/status, in megabytes. Unlike getrusage's ru_maxrss it starts
// afresh at exec, so a workload started by another process is not
// charged with that process's memory.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// finite replaces a value JSON cannot carry (NaN, ±Inf) with 0 and says
// so, instead of failing the whole report.
func finite(name string, v float64, r *report) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not finite (%v)", name, v)
		return 0
	}
	return v
}
