// The worker client: one shard in, one verified set of raw NDJSON rows
// out. Everything that can go wrong on the wire — refused connections,
// 5xx/429 responses, streams that die or stall mid-row, truncated or
// garbled NDJSON, out-of-order indexes — is classified as a transient
// transport error the scheduler may retry on another worker. Only a 4xx
// rejection or an application-level point failure is permanent.
//
// A shard travels as one /v1/sweep NDJSON stream. The worker resolves
// each row through its result cache and, in a sharded fleet, its row's
// owning replica, so a re-dispatched or repeated shard reuses rows
// instead of recomputing them.
package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/groupdetect/gbd/internal/serve"
)

// transportError is a transient wire-level failure: the shard's work is
// untouched and a re-dispatch (same worker later, or another worker) is
// expected to succeed. retryAfter, when positive, is the worker's own
// Retry-After estimate from a 429/503 shed — the scheduler backs off at
// least that long instead of hammering an overloaded worker.
type transportError struct {
	msg        string
	retryAfter time.Duration
}

func (e *transportError) Error() string { return "fabric: transport: " + e.msg }

// retryAfterHint extracts a worker's Retry-After backoff from a shard
// failure (0 when the error carried none).
func retryAfterHint(err error) time.Duration {
	var te *transportError
	if errors.As(err, &te) {
		return te.retryAfter
	}
	return 0
}

// parseRetryAfter reads the delay-seconds form of a Retry-After header
// (the only form gbd-server emits); anything unparsable is 0.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	sec, err := strconv.Atoi(h)
	if err != nil || sec <= 0 {
		return 0
	}
	return time.Duration(sec) * time.Second
}

// rejectError is a permanent worker rejection (4xx): the request itself
// is invalid and no amount of re-dispatching will change that.
type rejectError struct {
	status int
	body   string
}

func (e *rejectError) Error() string {
	return fmt.Sprintf("fabric: worker rejected shard: status %d: %s", e.status, e.body)
}

// pointError is an application-level sweep point failure reported by a
// worker in a non-keep-going campaign. It is permanent and carries the
// global point index, preserving the lowest-index-error contract from
// internal/sweep across the fleet.
type pointError struct {
	index int
	msg   string
}

func (e *pointError) Error() string {
	return fmt.Sprintf("fabric: point %d failed: %s", e.index, e.msg)
}

// rowProbe is the minimal decode of one NDJSON stream line: enough to
// tell heartbeats from data rows and to verify index order, without
// interpreting (or perturbing) the row payload that gets committed
// verbatim.
type rowProbe struct {
	HB    bool   `json:"hb"`
	Index *int   `json:"index"`
	Error string `json:"error"`
}

// client fetches shards from workers.
type client struct {
	hc           *http.Client
	stallTimeout time.Duration
	heartbeatMS  int64
}

// maxLineBytes bounds one NDJSON row (matches the serve body bound).
const maxLineBytes = 1 << 20

// watchdog is the per-attempt stall detector: any byte of progress (row
// or heartbeat) resets it; firing cancels the attempt context so the
// failure classifies as a stall rather than hanging forever.
type watchdog struct {
	ctx      context.Context
	reqCtx   context.Context
	timeout  time.Duration
	stalled  atomic.Bool
	progress func()
	stop     func()
}

func (c *client) newWatchdog(ctx context.Context) *watchdog {
	w := &watchdog{ctx: ctx, reqCtx: ctx, timeout: c.stallTimeout, progress: func() {}, stop: func() {}}
	if c.stallTimeout > 0 {
		actx, cancel := context.WithCancel(ctx)
		w.ctx = actx
		wd := time.AfterFunc(c.stallTimeout, func() {
			w.stalled.Store(true)
			cancel()
		})
		w.progress = func() { wd.Reset(c.stallTimeout) }
		w.stop = func() { wd.Stop(); cancel() }
	}
	return w
}

// classify maps a wire failure to its scheduler meaning: stall, caller
// cancellation, or a retryable transport error.
func (w *watchdog) classify(err error) error {
	if w.stalled.Load() {
		fabricStalls.Inc()
		return &transportError{msg: fmt.Sprintf("no progress for %v (stalled stream)", w.timeout)}
	}
	if cerr := w.reqCtx.Err(); cerr != nil {
		return cerr
	}
	return &transportError{msg: err.Error()}
}

// scanRows consumes an NDJSON row stream: heartbeats are skipped and
// index order is enforced.
func (c *client) scanRows(wd *watchdog, body io.Reader, keepGoing bool, start int, values []float64) ([][]byte, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	lines := make([][]byte, 0, len(values))
	next := start
	for sc.Scan() {
		wd.progress()
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var p rowProbe
		if err := json.Unmarshal(line, &p); err != nil {
			// A truncated or garbled row: the stream is broken, not the
			// shard — recompute elsewhere.
			return nil, &transportError{msg: fmt.Sprintf("garbled NDJSON row %q", line)}
		}
		if p.HB {
			fabricHeartbeats.Inc()
			continue
		}
		if next-start == len(values) {
			return nil, &transportError{msg: fmt.Sprintf("row past the shard's %d values: %q", len(values), line)}
		}
		if p.Index == nil || *p.Index != next {
			return nil, &transportError{msg: fmt.Sprintf("row out of order: want index %d, got %q", next, line)}
		}
		if p.Error != "" && !keepGoing {
			// The worker's sweep engine stopped at an application failure.
			// The rest of this shard is "skipped" filler that must never
			// reach the ledger; surface the failure at its global index.
			return nil, &pointError{index: *p.Index, msg: p.Error}
		}
		lines = append(lines, append([]byte(nil), line...))
		fabricRows.Inc()
		next++
	}
	if err := sc.Err(); err != nil {
		return nil, wd.classify(err)
	}
	if got := next - start; got != len(values) {
		// The stream ended cleanly but short — a mid-flight truncation the
		// HTTP layer couldn't see (e.g. a proxy cutting a chunked stream).
		if err := wd.ctx.Err(); err != nil {
			return nil, wd.classify(err)
		}
		return nil, &transportError{msg: fmt.Sprintf("truncated stream: got %d of %d rows", got, len(values))}
	}
	return lines, nil
}

// fetchShard posts one shard of the campaign to a worker's /v1/sweep and
// returns the raw data-row lines, exactly one per value, in order. The
// request carries IndexBase so rows come back with campaign-global
// indexes, and a heartbeat period below the stall timeout so a slow point
// is distinguishable from a dead worker: any byte of progress (row or
// heartbeat) resets the stall watchdog. A non-200 status is a permanent
// 4xx rejection, or a transient transport error carrying any Retry-After
// hint.
func (c *client) fetchShard(ctx context.Context, baseURL string, req serve.SweepRequest, start int, values []float64) ([][]byte, error) {
	req.Values = values
	req.IndexBase = start
	req.HeartbeatMS = c.heartbeatMS
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("fabric: encode shard request: %w", err)
	}
	wd := c.newWatchdog(ctx)
	defer wd.stop()
	hreq, err := http.NewRequestWithContext(wd.ctx, http.MethodPost, baseURL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("fabric: build shard request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, wd.classify(err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxLineBytes))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		slurp, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		msg := string(bytes.TrimSpace(slurp))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return nil, &rejectError{status: resp.StatusCode, body: msg}
		}
		return nil, &transportError{
			msg:        fmt.Sprintf("status %d: %s", resp.StatusCode, msg),
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	wd.progress()
	return c.scanRows(wd, resp.Body, req.KeepGoing, start, values)
}

// isTransient reports whether a shard attempt failure is a wire-level
// condition worth re-dispatching.
func isTransient(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}
