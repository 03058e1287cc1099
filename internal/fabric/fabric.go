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
// The shards run on sweep.Run, one shard function each; the fleet state
// they share (breakers, slots, completed durations, the event log) sits
// behind one mutex.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"github.com/groupdetect/gbd/internal/checkpoint"
	"github.com/groupdetect/gbd/internal/peer"
	"github.com/groupdetect/gbd/internal/scenario"
	"github.com/groupdetect/gbd/internal/serve"
	"github.com/groupdetect/gbd/internal/sweep"
)

// Fixed scheduling policy: concurrent attempts per worker, and the hedge
// deadline — hedgeFactor times the hedgeQuantile of completed-attempt
// durations, at least hedgeMinDelay, armed once hedgeMinSamples attempts
// have completed.
const (
	slotsPerWorker  = 2
	hedgeQuantile   = 0.9
	hedgeFactor     = 3
	hedgeMinDelay   = time.Second
	hedgeMinSamples = 3
)

// Config describes one coordinated sweep campaign. Every field is taken
// as written; Validate refuses the out-of-range ones.
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

	// ShardSize is how many sweep points ride in one dispatch (>= 1).
	ShardSize int
	// Retries bounds transient re-dispatches per shard (0 = none). Hedges
	// do not consume this budget — only failed attempts do.
	Retries int
	// RetryBackoff is the base of the jittered exponential backoff between
	// a shard's transient failures (sweep.BackoffDelay; 0 = none).
	RetryBackoff time.Duration
	// StallTimeout fails an attempt whose stream makes no progress (no row
	// and no heartbeat) for this long (<= 0 disables). The worker
	// heartbeat period is derived from it, so a slow point on a live
	// worker never trips the watchdog.
	StallTimeout time.Duration
	// MaxHedges bounds speculative twins per shard (0 disables hedging).
	MaxHedges int
	// CircuitThreshold consecutive transport failures (>= 1) open a
	// worker's circuit; CircuitCooldown is how long it stays open before
	// the single re-admission probe.
	CircuitThreshold int
	CircuitCooldown  time.Duration

	// HTTPClient overrides the transport (default http.DefaultClient).
	// Excluded from JSON so a Config can be recorded in a run manifest.
	HTTPClient *http.Client `json:"-"`
	// OnEvent, when set, observes every scheduling event as it happens.
	// It is called with the fleet lock held: keep it fast, and do not
	// call back into the Coordinator.
	OnEvent func(Event) `json:"-"`
}

// Validate refuses a policy the coordinator cannot run as written, naming
// the gbd-coordinator flag that sets the field.
func (c Config) Validate() error {
	switch {
	case c.ShardSize < 1:
		return fmt.Errorf("shard-size = %d must be >= 1", c.ShardSize)
	case c.Retries < 0:
		return fmt.Errorf("retries = %d must be >= 0", c.Retries)
	case c.RetryBackoff < 0:
		return fmt.Errorf("retry-backoff = %v must be >= 0", c.RetryBackoff)
	case c.MaxHedges < 0:
		return fmt.Errorf("hedges = %d must be >= 0", c.MaxHedges)
	case c.CircuitThreshold < 1:
		return fmt.Errorf("circuit-threshold = %d must be >= 1", c.CircuitThreshold)
	case c.CircuitCooldown < 0:
		return fmt.Errorf("circuit-cooldown = %v must be >= 0", c.CircuitCooldown)
	}
	return nil
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
// complete failure-handling record of the run. Each count is the number
// of events of its type: Dispatched counts dispatch events (first tries
// and re-dispatches), Hedged the hedge events.
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

// shard is one contiguous slice of the campaign grid.
type shard struct {
	start  int       // global index of values[0]
	values []float64 // the axis values of this shard
	home   int       // the worker preferred for it: its plan ordinal mod the fleet size
	// turn is closed once the shard before it has first dispatched, and
	// next is the turn of the shard after it: first dispatches go out in
	// plan order, while a shard waiting out its backoff holds back none.
	turn, next chan struct{}
	done       bool // guarded by Coordinator.mu: a result has committed
}

// attempt is one fetch of a shard on one worker.
type attempt struct {
	w       *worker
	started time.Time
	cancel  context.CancelFunc
	err     error // the settled outcome, nil for a committed result
}

// worker is one remote gbd-server in the fleet: its circuit breaker and
// its taken slots, guarded by Coordinator.mu.
type worker struct {
	idx      int
	url      string
	br       peer.Breaker
	inflight int
}

// Coordinator runs one campaign over a worker fleet.
type Coordinator struct {
	cfg Config
	led *ledger
	cl  *client

	// The fleet state, shared by every shard function and attempt.
	mu        sync.Mutex
	workers   []*worker
	durations []time.Duration // of completed attempts: the hedge deadline
	changed   chan struct{}   // closed, and replaced, when a slot frees
	stop      chan struct{}   // closed at the first permanent failure
	stopping  bool
	fatal     error // a ledger failure: the campaign aborts with it
	abort     context.CancelFunc
	rep       *Report
	attempts  sync.WaitGroup
}

// New validates the configuration, opens (or resumes) the work ledger,
// and builds the fleet state. It performs no network I/O.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fabric: no workers configured")
	}
	if len(cfg.Request.Values) == 0 {
		return nil, fmt.Errorf("fabric: empty campaign: request has no values")
	}
	if cfg.LedgerPath == "" {
		return nil, fmt.Errorf("fabric: LedgerPath is required (the work ledger is the double-count guard)")
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
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
		c.workers = append(c.workers, &worker{idx: i, url: url,
			br: peer.Breaker{Threshold: cfg.CircuitThreshold, Cooldown: cfg.CircuitCooldown}})
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
	turn := make(chan struct{})
	close(turn)
	for i := 0; i < len(missing); {
		j := i + 1
		for j < len(missing) && j-i < c.cfg.ShardSize && missing[j] == missing[j-1]+1 {
			j++
		}
		start, next := missing[i], make(chan struct{})
		shards = append(shards, &shard{
			start:  start,
			values: c.cfg.Request.Values[start : start+(j-i)],
			home:   len(shards) % len(c.workers),
			turn:   turn,
			next:   next,
		})
		i, turn = j, next
	}
	return shards
}

// Run executes the campaign and blocks until every point has a committed
// row, a permanent failure surfaces, or ctx is cancelled. The returned
// Report is never nil. On success the merged result is complete in the
// ledger (WriteMerged); on failure the error is the lowest-global-index
// one, matching what a sequential single-machine sweep would have
// reported first. Shards already running when a failure stops the
// campaign finish their attempts in flight, and their rows still commit.
func (c *Coordinator) Run(ctx context.Context) (*Report, error) {
	shards := c.planShards()
	rep := &Report{Points: len(c.cfg.Request.Values), Shards: len(shards), Restored: c.led.restored()}
	for _, w := range c.workers {
		rep.Workers = append(rep.Workers, WorkerReport{URL: w.url})
	}
	fabricShards.Add(uint64(len(shards)))
	rctx, abort := context.WithCancel(ctx)
	defer abort()
	c.changed, c.stop, c.abort, c.rep = make(chan struct{}), make(chan struct{}), abort, rep
	// One shard function per shard: the fleet's slots, not the pool, bound
	// how many attempts run.
	srep, err := sweep.Run(rctx, sweep.Options{Workers: len(shards)}, shards, c.runShard)
	c.attempts.Wait() // cancelled hedge losers settle before the report is read
	switch {
	case c.fatal != nil:
		return rep, c.fatal
	case len(srep.Failed) > 0:
		// Shards are in index order and never overlap, so the first failed
		// shard holds the lowest failing point.
		return rep, srep.Failed[0].Err
	case err != nil:
		return rep, err
	case !c.led.complete():
		return rep, fmt.Errorf("fabric: campaign ended with missing rows (this is a bug)")
	}
	return rep, nil
}

// runShard is the one shard function. It dispatches the shard, adds a
// speculative twin once the oldest attempt runs past the hedge deadline,
// and after a transient failure re-dispatches it no sooner than
// max(sweep.BackoffDelay, Retry-After) — a worker that shed the shard
// said when it is worth coming back — until the retry budget is spent.
// The first success commits the rows (settle) and wins; the other
// attempts are cancelled. A shard still owed a try when the campaign
// stops at a permanent failure returns nil: skipped, not failed.
func (c *Coordinator) runShard(ctx context.Context, _ int, sh *shard) (struct{}, error) {
	var (
		live     []*attempt
		tried    = make(map[int]int) // attempts per worker index
		failures int
		hedges   int
		retryAt  time.Time // backing off: no re-dispatch before it
		// At most one attempt per worker is ever in flight, so no settle
		// blocks on this channel, even after the shard has returned.
		results = make(chan *attempt, len(c.workers))
	)
	defer func() {
		for _, a := range live {
			a.cancel()
		}
	}()
	select {
	case <-sh.turn:
	case <-c.stop:
		return struct{}{}, nil
	case <-ctx.Done():
		return struct{}{}, ctx.Err()
	}
	for {
		// Under the fleet lock: take a slot for a dispatch or a due hedge,
		// or learn what to wait for before looking again — a freed slot
		// (changed), the campaign stopping, and the instant (at) a backoff
		// or hedge deadline passes or an open breaker admits its probe.
		var (
			w             *worker
			kind          string
			at            time.Time
			changed, stop <-chan struct{}
			live0         = len(live) == 0
		)
		c.mu.Lock()
		now := time.Now()
		switch {
		case live0 && c.stopping:
			c.mu.Unlock()
			return struct{}{}, nil
		case live0 && now.Before(retryAt):
			at, stop = retryAt, c.stop
		case live0:
			kind, stop = "dispatch", c.stop
		case hedges >= c.cfg.MaxHedges || c.stopping:
		case len(c.durations) < hedgeMinSamples:
			changed = c.changed // armed by a later completion
		default:
			ds := slices.Clone(c.durations)
			slices.Sort(ds)
			d := max(time.Duration(float64(ds[int(hedgeQuantile*float64(len(ds)))])*hedgeFactor), hedgeMinDelay)
			// live is in launch order, so live[0] is the oldest attempt.
			if at, changed = live[0].started.Add(d), c.changed; !now.Before(at) {
				kind, at = "hedge", time.Time{}
			}
		}
		if kind != "" {
			if w = c.pick(sh, tried, live, now); w != nil {
				c.take(w, sh, kind)
			} else {
				changed, at = c.changed, c.probeAt(now)
			}
		}
		c.mu.Unlock()

		if w != nil {
			if live0 && len(tried) == 0 {
				close(sh.next)
			}
			if !live0 {
				hedges++
			}
			actx, cancel := context.WithCancel(ctx)
			a := &attempt{w: w, started: time.Now(), cancel: cancel}
			live = append(live, a)
			tried[w.idx]++
			c.attempts.Add(1)
			go func() {
				defer c.attempts.Done()
				lines, err := c.cl.fetchShard(actx, w.url, c.cfg.Request, sh.start, sh.values)
				c.settle(actx, sh, a, lines, err)
				results <- a
			}()
			continue
		}
		var fire <-chan time.Time
		var timer *time.Timer
		if !at.IsZero() {
			timer = time.NewTimer(time.Until(at))
			fire = timer.C
		}
		var a *attempt
		select {
		case a = <-results:
		case <-changed:
		case <-stop:
		case <-fire:
		case <-ctx.Done():
		}
		if timer != nil {
			timer.Stop()
		}
		if ctx.Err() != nil {
			return struct{}{}, ctx.Err()
		}
		if a == nil {
			continue
		}
		live = slices.DeleteFunc(live, func(b *attempt) bool { return b == a })
		if a.err == nil {
			return struct{}{}, nil
		}
		if isTransient(a.err) {
			failures++
			if len(live) > 0 {
				// A twin of this shard is still racing and may yet win; never
				// declare the shard (or the campaign) lost while it runs.
				continue
			}
		}
		if err := c.next(sh, a, failures); err != nil {
			return struct{}{}, err
		}
		retryAt = time.Now().Add(max(sweep.BackoffDelay(c.cfg.RetryBackoff, sh.start, failures-1), retryAfterHint(a.err)))
	}
}

// pick chooses the worker for a new attempt of sh, or nil: an admissible
// worker with a free slot and no attempt of sh in live. It prefers the
// worker sh has tried least, then sh's home worker, then the least
// loaded; ties go to the first in scan order, which starts at home. The
// home preference places a campaign re-run over the same fleet where its
// rows are already cached; trying the least-tried worker first spreads a
// shard's retries over the fleet. The caller holds c.mu.
func (c *Coordinator) pick(sh *shard, tried map[int]int, live []*attempt, now time.Time) *worker {
	var best *worker
	for off := range c.workers {
		w := c.workers[(sh.home+off)%len(c.workers)]
		if w.inflight >= slotsPerWorker || !w.br.Admissible(now) || slices.ContainsFunc(live, func(a *attempt) bool { return a.w == w }) {
			continue
		}
		if best == nil || tried[w.idx] < tried[best.idx] ||
			tried[w.idx] == tried[best.idx] && best.idx != sh.home && w.inflight < best.inflight {
			best = w
		}
	}
	return best
}

// take claims a slot on w for an attempt of sh; kind is dispatch or
// hedge. The caller holds c.mu.
func (c *Coordinator) take(w *worker, sh *shard, kind string) {
	if w.br.OnDispatch() {
		c.emit(Event{Type: "probe", Shard: sh.start, Worker: w.idx})
	}
	w.inflight++
	fabricInflightMax.SetMax(fabricInflight.Add(1))
	c.emit(Event{Type: kind, Shard: sh.start, Worker: w.idx})
}

// probeAt returns the earliest future instant an open breaker admits its
// probe, or the zero time. The caller holds c.mu.
func (c *Coordinator) probeAt(now time.Time) time.Time {
	var first time.Time
	for _, w := range c.workers {
		if at, ok := w.br.ProbeAt(); ok && at.After(now) && (first.IsZero() || at.Before(first)) {
			first = at
		}
	}
	return first
}

// settle accounts for one finished attempt and records its outcome in
// a.err: it frees the slot, feeds the breaker and commits a success to
// the ledger — the first success completes the shard, a later one is a
// verified duplicate. A cancelled attempt (a twin won, or the campaign is
// aborting) is neither a worker nor a shard failure. A ledger conflict or
// write failure aborts the campaign: retrying elsewhere cannot mend it.
func (c *Coordinator) settle(actx context.Context, sh *shard, a *attempt, lines [][]byte, err error) {
	var cerr error
	if err == nil {
		_, cerr = c.led.commit(sh.start, lines)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := a.w
	w.inflight--
	fabricInflight.Add(-1)
	close(c.changed)
	c.changed = make(chan struct{})
	elapsed := time.Since(a.started)
	ev := Event{Shard: sh.start, Worker: w.idx, ElapsedMS: elapsed.Milliseconds()}
	switch {
	case err == nil && cerr != nil:
		w.br.OnSuccess()
		ev.Type, ev.Err = "failure", cerr.Error()
		c.emit(ev)
		if c.fatal == nil {
			c.fatal = fmt.Errorf("fabric: shard at point %d: %w", sh.start, cerr)
		}
		c.halt()
		c.abort()
		a.err = c.fatal
	case err == nil:
		w.br.OnSuccess()
		ev.Type = "duplicate"
		if !sh.done {
			sh.done = true
			c.durations = append(c.durations, elapsed)
			ev.Type = "complete"
		}
		c.emit(ev)
	case actx.Err() != nil:
		a.err = actx.Err()
	default:
		c.rep.Workers[w.idx].Failures++
		workerCounter(w.idx, "failures").Inc()
		if isTransient(err) && w.br.OnFailure(time.Now()) {
			c.emit(Event{Type: "circuit_open", Shard: sh.start, Worker: w.idx, Err: err.Error()})
		}
		a.err = err
	}
}

// next decides what follows a failed attempt of sh that left no twin
// running: nil to re-dispatch (after a retry event) or, once the
// campaign has stopped, to skip; else the shard's failure — a permanent
// error at once, a transient one with the retry budget spent. A failure
// stops the campaign.
func (c *Coordinator) next(sh *shard, a *attempt, failures int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	var pe *pointError
	switch {
	case errors.As(a.err, &pe):
		err = a.err // application failure, at its global point index
	case !isTransient(a.err):
		// 4xx rejection or an unexpected error: re-dispatching the same
		// request cannot help.
		err = fmt.Errorf("fabric: shard at point %d: %w", sh.start, a.err)
	case c.stopping:
		return nil
	case failures > c.cfg.Retries:
		err = fmt.Errorf("fabric: shard at point %d failed after %d attempts: %w", sh.start, failures, a.err)
	default:
		c.emit(Event{Type: "retry", Shard: sh.start, Worker: a.w.idx, Err: a.err.Error()})
		return nil
	}
	c.emit(Event{Type: "failure", Shard: sh.start, Worker: a.w.idx, ElapsedMS: time.Since(a.started).Milliseconds(), Err: a.err.Error()})
	c.halt()
	return err
}

// halt stops new attempts. The caller holds c.mu.
func (c *Coordinator) halt() {
	if !c.stopping {
		c.stopping = true
		close(c.stop)
	}
}

// emit is the one accounting site: it logs ev, shows it to OnEvent and
// moves what its type counts (eventCounters). The caller holds c.mu.
func (c *Coordinator) emit(ev Event) {
	c.rep.Events = append(c.rep.Events, ev)
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(ev)
	}
	ec := eventCounters[ev.Type]
	ec.fleet.Inc()
	if ec.report != nil {
		*ec.report(c.rep)++
	}
	if ec.worker != "" {
		workerCounter(ev.Worker, ec.worker).Inc()
	}
	if ec.workerReport != nil {
		*ec.workerReport(&c.rep.Workers[ev.Worker])++
	}
}
