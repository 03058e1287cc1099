// Package fabric is the fault-tolerant distributed sweep coordinator
// (DESIGN.md §12): it partitions a sweep campaign's point grid into
// shards, dispatches them to a fleet of gbd-server workers over the
// /v1/sweep NDJSON stream, and reassembles a merged result that is
// byte-identical to what one machine would have produced — under worker
// crashes, stream truncation, stalls, and error bursts.
//
// The failure-handling machinery:
//
//   - a work ledger (internal/checkpoint under the hood) that makes shard
//     completion idempotent: re-dispatched and hedged shards commit into
//     the same per-point slots, duplicates are verified byte-identical,
//     and a killed coordinator resumes owing only the missing rows;
//   - per-worker health with a consecutive-failure circuit breaker:
//     a worker that keeps failing stops receiving shards until a cooldown
//     elapses, then gets a single re-admission probe;
//   - straggler hedging: once enough shards have completed to estimate a
//     duration quantile, an attempt running far beyond it gets a
//     speculative twin on another worker — first result wins, the loser
//     is cancelled, and the ledger guarantees the race cannot double-count;
//   - retry with the same deterministic jittered backoff as
//     internal/sweep, preserving its lowest-index-error contract: the
//     campaign error is the one a sequential single-machine run would
//     have hit first.
//
// All scheduler state lives in a single goroutine; attempt goroutines
// only run the HTTP fetch and report back on a channel sized so sends
// never block.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"github.com/groupdetect/gbd/internal/checkpoint"
	"github.com/groupdetect/gbd/internal/peer"
	"github.com/groupdetect/gbd/internal/scenario"
	"github.com/groupdetect/gbd/internal/serve"
	"github.com/groupdetect/gbd/internal/sweep"
)

// Config describes one coordinated sweep campaign.
type Config struct {
	// Workers are the base URLs of the gbd-server fleet (e.g.
	// "http://10.0.0.7:8080"). At least one is required.
	Workers []string
	// Request is the full-campaign sweep request: the complete Values grid,
	// scenario, options, trials, and seed. The coordinator slices Values
	// into shards and fills IndexBase/HeartbeatMS per dispatch.
	Request serve.SweepRequest
	// LedgerPath is the work-ledger checkpoint file. Required.
	LedgerPath string
	// Resume reopens an existing ledger (fingerprint-validated) instead of
	// starting fresh; only missing rows are recomputed.
	Resume bool

	// ShardSize is how many sweep points ride in one dispatch (default 8).
	ShardSize int
	// MaxInflightPerWorker bounds concurrent shards per worker (default 2).
	MaxInflightPerWorker int
	// Retries bounds transient re-dispatches per shard (default 6). Hedges
	// do not consume this budget — only failed attempts do.
	Retries int
	// RetryBackoff is the base of the jittered exponential backoff between
	// a shard's transient failures (default 100ms; sweep.BackoffDelay).
	RetryBackoff time.Duration
	// StallTimeout fails an attempt whose stream makes no progress (no row
	// and no heartbeat) for this long (default 30s; <= -1 disables). The
	// worker heartbeat period is derived from it, so a slow point on a
	// live worker never trips the watchdog.
	StallTimeout time.Duration

	// MaxHedges bounds speculative twins per shard (default 1; 0 disables
	// hedging). A hedge fires when an attempt has been running longer than
	// HedgeFactor times the HedgeQuantile of completed-attempt durations
	// (defaults 3 and 0.9), at least HedgeMinDelay (default 1s), and only
	// once HedgeMinSamples attempts have completed (default 3).
	MaxHedges       int
	HedgeQuantile   float64
	HedgeFactor     float64
	HedgeMinDelay   time.Duration
	HedgeMinSamples int

	// CircuitThreshold consecutive transport failures open a worker's
	// circuit (default 3); CircuitCooldown is how long it stays open before
	// the single re-admission probe (default 5s).
	CircuitThreshold int
	CircuitCooldown  time.Duration

	// HTTPClient overrides the transport (default http.DefaultClient).
	// Excluded from JSON so a Config can be recorded in a run manifest.
	HTTPClient *http.Client `json:"-"`
	// Tick is the scheduler's housekeeping period for hedge scans, backoff
	// wakeups, and cooldown expiry (default 25ms).
	Tick time.Duration
	// OnEvent, when set, observes every scheduling event as it happens
	// (called from the scheduler goroutine; keep it fast).
	OnEvent func(Event) `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.ShardSize <= 0 {
		c.ShardSize = 8
	}
	if c.MaxInflightPerWorker <= 0 {
		c.MaxInflightPerWorker = 2
	}
	if c.Retries == 0 {
		c.Retries = 6
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.RetryBackoff < 0 {
		c.RetryBackoff = 0
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 30 * time.Second
	}
	if c.StallTimeout < 0 {
		c.StallTimeout = 0 // disabled
	}
	if c.MaxHedges < 0 {
		c.MaxHedges = 0
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile > 1 {
		c.HedgeQuantile = 0.9
	}
	if c.HedgeFactor <= 0 {
		c.HedgeFactor = 3
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = time.Second
	}
	if c.HedgeMinSamples <= 0 {
		c.HedgeMinSamples = 3
	}
	if c.CircuitThreshold <= 0 {
		c.CircuitThreshold = 3
	}
	if c.CircuitCooldown <= 0 {
		c.CircuitCooldown = 5 * time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.Tick <= 0 {
		c.Tick = 25 * time.Millisecond
	}
	return c
}

// campaignKey is the canonical campaign identity fingerprinted into the
// work ledger: everything that determines the merged row bytes. Worker
// URLs, shard size, and fault policy deliberately stay out — they change
// how the campaign runs, not what it computes.
type campaignKey struct {
	Scenario  scenario.Scenario    `json:"scenario"`
	Options   serve.AnalyzeOptions `json:"options"`
	Axis      serve.SweepAxis      `json:"axis"`
	Values    []float64            `json:"values"`
	Trials    int                  `json:"trials"`
	KeepGoing bool                 `json:"keep_going"`
	// RNG changes every simulated value, so a ledger must never be
	// resumed across schemes; omitempty keeps pre-scheme ledgers valid.
	RNG string `json:"rng,omitempty"`
}

// Fingerprint derives the work-ledger fingerprint for a campaign request.
// It binds the ledger to the exact grid, scenario, options, seed, and the
// coordinator's build identity — a resumed ledger from any other campaign
// is refused, never merged.
func Fingerprint(req serve.SweepRequest) (string, error) {
	return checkpoint.Fingerprint("gbd-coordinator", campaignKey{
		Scenario:  req.Scenario,
		Options:   req.Options,
		Axis:      req.Axis,
		Values:    req.Values,
		Trials:    req.Trials,
		KeepGoing: req.KeepGoing,
		RNG:       req.RNG,
	}, req.Seed)
}

// Event is one scheduling decision or outcome, in campaign order.
type Event struct {
	// Type is one of dispatch, probe, complete, duplicate, retry, hedge,
	// circuit_open, failure.
	Type string `json:"type"`
	// Shard is the shard's first global point index.
	Shard int `json:"shard"`
	// Worker indexes into Config.Workers.
	Worker int `json:"worker"`
	// ElapsedMS is the attempt duration for complete/duplicate/failure.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// Err carries the failure message for retry/failure/circuit_open.
	Err string `json:"err,omitempty"`
}

// WorkerReport summarizes one worker's campaign.
type WorkerReport struct {
	URL          string `json:"url"`
	Dispatched   int    `json:"dispatched"`
	Completed    int    `json:"completed"`
	Failures     int    `json:"failures"`
	CircuitOpens int    `json:"circuit_opens"`
}

// Report is the campaign outcome: shard accounting, the full event log,
// and per-worker health. Together with the obs metrics snapshot it is the
// complete failure-handling record of the run.
type Report struct {
	Points     int            `json:"points"`
	Shards     int            `json:"shards"`
	Restored   int            `json:"restored"`
	Dispatched int            `json:"dispatched"`
	Completed  int            `json:"completed"`
	Retried    int            `json:"retried"`
	Hedged     int            `json:"hedged"`
	Duplicates int            `json:"duplicates"`
	Opens      int            `json:"circuit_opens"`
	Probes     int            `json:"probes"`
	Workers    []WorkerReport `json:"workers"`
	Events     []Event        `json:"events"`
}

// shard is one contiguous slice of the campaign grid and its scheduling
// state. All fields are owned by the scheduler goroutine.
type shard struct {
	start    int       // global index of values[0]
	values   []float64 // the axis values of this shard
	done     bool
	inflight int
	failures int       // transient failures so far (retry budget)
	hedges   int       // speculative twins fired
	readyAt  time.Time // earliest re-dispatch (backoff)
	pending  bool      // awaiting (re)dispatch
	tried    map[int]bool
	attempts map[int]*attempt
	lastErr  error
}

// attempt is one in-flight fetch of a shard.
type attempt struct {
	id      int
	worker  int
	started time.Time
	cancel  context.CancelFunc
	hedge   bool
}

// result is what an attempt goroutine reports back.
type result struct {
	sh    *shard
	att   *attempt
	lines [][]byte
	err   error
}

// worker is one remote gbd-server in the fleet, with its circuit
// breaker (owned by the scheduler goroutine, so unlocked), its current
// dispatch load, and its metric handles.
type worker struct {
	idx      int
	url      string
	br       peer.Breaker
	inflight int
	m        workerMetrics
}

// Coordinator runs one campaign over a worker fleet.
type Coordinator struct {
	cfg     Config
	workers []*worker
	led     *ledger
	cl      *client
}

// New validates the configuration, opens (or resumes) the work ledger,
// and builds the fleet state. It performs no network I/O.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fabric: no workers configured")
	}
	if len(cfg.Request.Values) == 0 {
		return nil, fmt.Errorf("fabric: empty campaign: request has no values")
	}
	if cfg.LedgerPath == "" {
		return nil, fmt.Errorf("fabric: LedgerPath is required (the work ledger is the double-count guard)")
	}
	fp, err := Fingerprint(cfg.Request)
	if err != nil {
		return nil, err
	}
	led, err := openLedger(cfg.LedgerPath, fp, len(cfg.Request.Values), cfg.Resume)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, led: led}
	for i, url := range cfg.Workers {
		c.workers = append(c.workers, &worker{
			idx: i,
			url: url,
			br:  peer.Breaker{Threshold: cfg.CircuitThreshold, Cooldown: cfg.CircuitCooldown},
			m:   newWorkerMetrics(i),
		})
	}
	hbMS := int64(0)
	if cfg.StallTimeout > 0 {
		// Heartbeats at a third of the stall timeout: a live worker always
		// lands at least two keep-alives inside every watchdog window.
		if hbMS = (cfg.StallTimeout / 3).Milliseconds(); hbMS < 1 {
			hbMS = 1
		}
	}
	c.cl = &client{hc: cfg.HTTPClient, stallTimeout: cfg.StallTimeout, heartbeatMS: hbMS}
	return c, nil
}

// WriteMerged streams the merged campaign NDJSON — every row in global
// index order, verbatim worker bytes. It fails if any row is missing.
func (c *Coordinator) WriteMerged(w interface{ Write([]byte) (int, error) }) error {
	return c.led.writeMerged(w)
}

// planShards chunks the ledger's missing indexes into contiguous shards.
func (c *Coordinator) planShards() []*shard {
	missing := c.led.missing()
	var shards []*shard
	for i := 0; i < len(missing); {
		j := i + 1
		for j < len(missing) && j-i < c.cfg.ShardSize && missing[j] == missing[j-1]+1 {
			j++
		}
		start := missing[i]
		shards = append(shards, &shard{
			start:    start,
			values:   c.cfg.Request.Values[start : start+(j-i)],
			pending:  true,
			tried:    make(map[int]bool),
			attempts: make(map[int]*attempt),
		})
		i = j
	}
	return shards
}

// Run executes the campaign and blocks until every point has a committed
// row, a permanent failure surfaces, or ctx is cancelled. The returned
// Report is never nil. On success the merged result is complete in the
// ledger (WriteMerged); on failure the error is the lowest-global-index
// one, matching what a sequential single-machine sweep would have
// reported first.
func (c *Coordinator) Run(ctx context.Context) (*Report, error) {
	shards := c.planShards()
	rep := &Report{
		Points:   len(c.cfg.Request.Values),
		Shards:   len(shards),
		Restored: c.led.restored(),
	}
	defer func() {
		for _, w := range c.workers {
			rep.Workers = append(rep.Workers, WorkerReport{
				URL:          w.url,
				Dispatched:   int(w.m.dispatched.Value()),
				Completed:    int(w.m.completed.Value()),
				Failures:     int(w.m.failures.Value()),
				CircuitOpens: int(w.m.circuitOpens.Value()),
			})
		}
	}()
	fabricShards.Add(uint64(len(shards)))
	if len(shards) == 0 {
		return rep, ctx.Err()
	}

	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()
	results := make(chan result, len(c.workers)*c.cfg.MaxInflightPerWorker)

	var (
		doneCount     int
		inflightTotal int
		attemptSeq    int
		durations     []time.Duration
		stopping      bool // no new dispatches; drain in-flight
		cancelled     bool // ctx cancelled: attempts aborted too
		failIndex     = -1
		failErr       error
	)
	emit := func(ev Event) {
		rep.Events = append(rep.Events, ev)
		if c.cfg.OnEvent != nil {
			c.cfg.OnEvent(ev)
		}
	}
	fail := func(index int, err error) {
		if failIndex == -1 || index < failIndex {
			failIndex, failErr = index, err
		}
		// Stop dispatching; in-flight shards drain and still commit, like
		// internal/sweep finishing already-dispatched points after a
		// failure. A lower-index failure during the drain takes over.
		stopping = true
	}
	abort := func(err error) {
		if failErr == nil {
			failIndex, failErr = 0, err
		}
		stopping, cancelled = true, true
		rcancel()
	}

	// runningOn reports whether sh currently has an attempt on w.
	runningOn := func(sh *shard, w *worker) bool {
		for _, a := range sh.attempts {
			if a.worker == w.idx {
				return true
			}
		}
		return false
	}
	rr := 0
	pickWorker := func(sh *shard, now time.Time) *worker {
		var best *worker
		bestTried := false
		for off := 0; off < len(c.workers); off++ {
			w := c.workers[(rr+off)%len(c.workers)]
			if w.inflight >= c.cfg.MaxInflightPerWorker || !w.br.Admissible(now) {
				continue
			}
			if runningOn(sh, w) {
				continue // a hedge or retry twin goes elsewhere
			}
			tried := sh.tried[w.idx]
			// Prefer a worker this shard has not failed on; among equals,
			// least loaded; ties resolve round-robin via the scan order.
			if best == nil || (!tried && bestTried) || (tried == bestTried && w.inflight < best.inflight) {
				best, bestTried = w, tried
			}
		}
		if best != nil {
			rr = (best.idx + 1) % len(c.workers)
		}
		return best
	}
	dispatch := func(sh *shard, now time.Time, kind string) bool {
		w := pickWorker(sh, now)
		if w == nil {
			return false
		}
		if w.br.OnDispatch() {
			fabricProbes.Inc()
			rep.Probes++
			emit(Event{Type: "probe", Shard: sh.start, Worker: w.idx})
		}
		actx, cancel := context.WithCancel(rctx)
		attemptSeq++
		att := &attempt{id: attemptSeq, worker: w.idx, started: now, cancel: cancel, hedge: kind == "hedge"}
		sh.attempts[att.id] = att
		sh.tried[w.idx] = true
		sh.inflight++
		sh.pending = false
		w.inflight++
		w.m.dispatched.Inc()
		inflightTotal++
		fabricDispatched.Inc()
		rep.Dispatched++
		fabricInflightMax.SetMax(fabricInflight.Add(1))
		emit(Event{Type: kind, Shard: sh.start, Worker: w.idx})
		go func() {
			lines, err := c.cl.fetchShard(actx, w.url, c.cfg.Request, sh.start, sh.values)
			results <- result{sh: sh, att: att, lines: lines, err: err}
		}()
		return true
	}
	hedgeDeadline := func() (time.Duration, bool) {
		if c.cfg.MaxHedges == 0 || len(durations) < c.cfg.HedgeMinSamples {
			return 0, false
		}
		ds := append([]time.Duration(nil), durations...)
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		k := int(c.cfg.HedgeQuantile * float64(len(ds)))
		if k >= len(ds) {
			k = len(ds) - 1
		}
		d := time.Duration(float64(ds[k]) * c.cfg.HedgeFactor)
		if d < c.cfg.HedgeMinDelay {
			d = c.cfg.HedgeMinDelay
		}
		return d, true
	}

	handle := func(res result, now time.Time) {
		sh, att := res.sh, res.att
		w := c.workers[att.worker]
		delete(sh.attempts, att.id)
		sh.inflight--
		w.inflight--
		inflightTotal--
		fabricInflight.Add(-1)
		elapsed := now.Sub(att.started)
		switch {
		case res.err == nil:
			w.br.OnSuccess()
			w.m.completed.Inc()
			if _, err := c.led.commit(sh.start, res.lines); err != nil {
				// A conflicting duplicate or a ledger write failure is not
				// recoverable by retrying elsewhere.
				abort(fmt.Errorf("fabric: shard at point %d: %w", sh.start, err))
				emit(Event{Type: "failure", Shard: sh.start, Worker: att.worker, Err: err.Error()})
				return
			}
			if sh.done {
				// The hedge loser finished anyway; its rows were verified
				// byte-identical above and changed nothing.
				fabricDupResults.Inc()
				rep.Duplicates++
				emit(Event{Type: "duplicate", Shard: sh.start, Worker: att.worker, ElapsedMS: elapsed.Milliseconds()})
				return
			}
			sh.done = true
			doneCount++
			fabricCompleted.Inc()
			rep.Completed++
			durations = append(durations, elapsed)
			emit(Event{Type: "complete", Shard: sh.start, Worker: att.worker, ElapsedMS: elapsed.Milliseconds()})
			for _, a := range sh.attempts {
				a.cancel() // first result won; stop the twins
			}
		case cancelled || (errors.Is(res.err, context.Canceled) && sh.done):
			// A cancelled hedge loser (or the shutdown drain): not a worker
			// failure, not a shard failure.
		default:
			w.m.failures.Inc()
			var pe *pointError
			if errors.As(res.err, &pe) {
				// Application failure: permanent at its global point index.
				fabricFailed.Inc()
				emit(Event{Type: "failure", Shard: sh.start, Worker: att.worker, ElapsedMS: elapsed.Milliseconds(), Err: res.err.Error()})
				fail(pe.index, res.err)
				return
			}
			if !isTransient(res.err) {
				// 4xx rejection or an unexpected error: re-dispatching the
				// same request cannot help.
				fabricFailed.Inc()
				emit(Event{Type: "failure", Shard: sh.start, Worker: att.worker, ElapsedMS: elapsed.Milliseconds(), Err: res.err.Error()})
				fail(sh.start, fmt.Errorf("fabric: shard at point %d: %w", sh.start, res.err))
				return
			}
			if opened := w.br.OnFailure(now); opened {
				fabricCircuitOpens.Inc()
				w.m.circuitOpens.Inc()
				rep.Opens++
				emit(Event{Type: "circuit_open", Shard: sh.start, Worker: att.worker, Err: res.err.Error()})
			}
			if sh.done || stopping {
				return
			}
			sh.failures++
			sh.lastErr = res.err
			if sh.inflight > 0 {
				// A twin of this shard is still racing and may yet win; never
				// declare the shard (or the campaign) lost while it runs.
				return
			}
			if sh.failures > c.cfg.Retries {
				fabricFailed.Inc()
				err := fmt.Errorf("fabric: shard at point %d failed after %d attempts: %w", sh.start, sh.failures, res.err)
				emit(Event{Type: "failure", Shard: sh.start, Worker: att.worker, ElapsedMS: elapsed.Milliseconds(), Err: res.err.Error()})
				fail(sh.start, err)
				return
			}
			// A worker that shed the shard told us when it is worth coming
			// back (Retry-After); honor the larger of that and our own
			// jittered backoff so the fleet never hot-loops on overload.
			backoff := sweep.BackoffDelay(c.cfg.RetryBackoff, sh.start, sh.failures-1)
			if ra := retryAfterHint(res.err); ra > backoff {
				backoff = ra
			}
			sh.readyAt = now.Add(backoff)
			sh.pending = true
			fabricRetried.Inc()
			w.m.retried.Inc()
			rep.Retried++
			emit(Event{Type: "retry", Shard: sh.start, Worker: att.worker, Err: res.err.Error()})
		}
	}

	ticker := time.NewTicker(c.cfg.Tick)
	defer ticker.Stop()
	ctxDone := rctx.Done()
	for {
		now := time.Now()
		if !stopping {
			// Dispatch every backoff-expired pending shard that has an
			// admissible worker with a free slot.
			for _, sh := range shards {
				if sh.pending && !now.Before(sh.readyAt) {
					dispatch(sh, now, "dispatch")
				}
			}
			// Hedge scan: speculate on attempts running far past the fleet's
			// observed completion quantile.
			if deadline, ok := hedgeDeadline(); ok {
				for _, sh := range shards {
					if sh.done || sh.inflight == 0 || sh.hedges >= c.cfg.MaxHedges {
						continue
					}
					oldest := time.Duration(0)
					for _, a := range sh.attempts {
						if d := now.Sub(a.started); d > oldest {
							oldest = d
						}
					}
					if oldest > deadline && dispatch(sh, now, "hedge") {
						sh.hedges++
						fabricHedged.Inc()
						c.workers[rep.Events[len(rep.Events)-1].Worker].m.hedged.Inc()
						rep.Hedged++
					}
				}
			}
		}
		if doneCount == len(shards) && inflightTotal == 0 {
			break
		}
		if stopping && inflightTotal == 0 {
			break
		}
		select {
		case res := <-results:
			handle(res, time.Now())
		case <-ticker.C:
			// Re-scan: backoffs expire, cooldowns admit probes, hedges fire.
		case <-ctxDone:
			ctxDone = nil
			abort(ctx.Err())
		}
	}
	if failErr != nil {
		return rep, failErr
	}
	if !c.led.complete() {
		return rep, fmt.Errorf("fabric: campaign ended with missing rows (this is a bug)")
	}
	return rep, nil
}
