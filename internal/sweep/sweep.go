// Package sweep provides a deterministic, fault-tolerant parallel map for
// parameter sweeps: every sweep point runs independently on a bounded
// worker pool, but results come back in input order and the reported error
// is the one the equivalent sequential loop would have hit first.
// Experiment runners use it to fan sweep points out across cores without
// giving up reproducible tables (each point already derives its own rng
// stream from its parameters, so execution order cannot leak into any
// result).
//
// Run is the resilient entry point (DESIGN.md §10): points observe a
// context, panics are isolated into point failures, transient failures are
// retried with jittered exponential backoff under an optional per-point
// deadline, and Degrade mode finishes every healthy point instead of
// aborting the sweep at the first failure. Resumable adds a checkpoint:
// restored points skip execution and completed ones persist as they land.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Options is the execution policy for Run.
type Options struct {
	// Workers bounds how many points run concurrently; 0 means
	// GOMAXPROCS (Validate refuses a negative count, which Run also reads
	// as GOMAXPROCS). A single worker degenerates to an inline sequential
	// loop.
	Workers int
	// Retries is how many times a failed point is re-attempted after its
	// first failure. 0 (the default) fails the point on the first error.
	// Context cancellation is never retried.
	Retries int
	// Backoff is the base delay before the first retry; it doubles per
	// subsequent retry and carries a deterministic jitter in [0.5, 1.5)
	// derived from the point index and attempt (no RNG, no global state).
	// 0 retries immediately.
	Backoff time.Duration
	// PointTimeout, when positive, bounds each attempt: the attempt's
	// context carries the deadline and the attempt fails with
	// context.DeadlineExceeded once it passes. The next attempt (if any
	// retries remain) gets a fresh deadline.
	PointTimeout time.Duration
	// Degrade keeps the sweep going after point failures: every remaining
	// point still runs, failed points are reported in Report.Failed, and
	// Run returns a nil error (cancellation aside). Without Degrade the
	// sweep stops dispatching new points at the first failure, like a
	// sequential loop would.
	Degrade bool
	// OnPointError, when set, observes every failed attempt (index,
	// 0-based attempt number, error) before any retry decision. It may be
	// called concurrently from multiple workers. It is runtime state,
	// left out of manifests.
	OnPointError func(index, attempt int, err error) `json:"-"`
}

// PointError reports the failure of one sweep point after all attempts.
type PointError struct {
	// Index is the point's position in the input slice.
	Index int
	// Attempts is how many times the point was tried.
	Attempts int
	// Err is the last attempt's error.
	Err error
}

func (e *PointError) Error() string {
	return fmt.Sprintf("sweep: point %d failed after %d attempt(s): %v", e.Index, e.Attempts, e.Err)
}

func (e *PointError) Unwrap() error { return e.Err }

// Report is the full outcome of a Run: per-point results, which points
// completed, and which failed. Results always has one slot per input item;
// slots of failed or skipped points hold the zero value.
type Report[R any] struct {
	Results []R
	// Done[i] reports whether point i completed successfully (restored
	// results count; skipped and failed points do not).
	Done []bool
	// Failed lists the failed points in ascending index order. Points
	// skipped because the sweep stopped early appear in neither Done nor
	// Failed.
	Failed []*PointError
}

// Err returns the lowest-index point failure, or nil if every dispatched
// point succeeded — the error the equivalent sequential loop would have
// returned first.
func (r *Report[R]) Err() error {
	if len(r.Failed) == 0 {
		return nil
	}
	return r.Failed[0]
}

// Run applies fn to every item under the given execution policy and
// returns the full report. The returned error is ctx.Err() if the sweep
// was cancelled, the lowest-index *PointError if a point failed and
// Degrade is off, and nil otherwise (Degrade failures are reported only in
// Report.Failed). The Report is never nil and always carries every result
// completed before Run returned.
func Run[T, R any](ctx context.Context, opt Options, items []T, fn func(context.Context, int, T) (R, error)) (*Report[R], error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	rep := &Report[R]{
		Results: make([]R, len(items)),
		Done:    make([]bool, len(items)),
	}
	if len(items) == 0 {
		return rep, ctx.Err()
	}
	errs := make([]*PointError, len(items))
	var stop atomic.Bool
	runOne := func(i int) {
		r, err := runPoint(ctx, opt, i, items[i], fn)
		switch {
		case err == nil:
			rep.Results[i] = r
			rep.Done[i] = true
		case ctx.Err() != nil && errors.Is(err, ctx.Err()):
			// Cancellation, not a point failure: stop dispatching.
			stop.Store(true)
		default:
			errs[i] = err.(*PointError)
			if !opt.Degrade {
				stop.Store(true)
			}
		}
	}
	if workers == 1 {
		for i := range items {
			if stop.Load() {
				break
			}
			runOne(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(items) || stop.Load() {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, pe := range errs {
		if pe != nil {
			rep.Failed = append(rep.Failed, pe)
		}
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if !opt.Degrade {
		return rep, rep.Err()
	}
	return rep, nil
}

// runPoint runs one sweep point through the retry policy. It returns the
// context error verbatim when the sweep was cancelled and a *PointError
// for genuine point failures (including per-attempt deadline overruns).
func runPoint[T, R any](ctx context.Context, opt Options, i int, item T, fn func(context.Context, int, T) (R, error)) (R, error) {
	var zero R
	var lastErr error
	attempts := 0
	for a := 0; a <= opt.Retries; a++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				return zero, err
			}
			break // cancelled mid-retry: report the point failure we have
		}
		attempts++
		r, err := attemptPoint(ctx, opt, i, item, fn)
		if err == nil {
			return r, nil
		}
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			// The attempt observed the sweep-wide cancellation (not its own
			// per-point deadline); surface it as cancellation, never retry.
			return zero, cerr
		}
		lastErr = err
		if opt.OnPointError != nil {
			opt.OnPointError(i, a, err)
		}
		if a < opt.Retries {
			sweepRetries.Inc()
			if !sleepCtx(ctx, BackoffDelay(opt.Backoff, i, a)) {
				break
			}
		}
	}
	sweepErrors.Inc()
	return zero, &PointError{Index: i, Attempts: attempts, Err: lastErr}
}

// attemptPoint runs a single attempt with occupancy accounting, the
// per-point deadline, and panic isolation.
func attemptPoint[T, R any](ctx context.Context, opt Options, i int, item T, fn func(context.Context, int, T) (R, error)) (r R, err error) {
	sweepItems.Inc()
	sweepInflightMax.SetMax(sweepInflight.Add(1))
	defer func() {
		sweepInflight.Add(-1)
		if p := recover(); p != nil {
			sweepPanics.Inc()
			err = fmt.Errorf("sweep: point %d panicked: %v\n%s", i, p, debug.Stack())
		}
	}()
	actx := ctx
	if opt.PointTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, opt.PointTimeout)
		defer cancel()
	}
	r, err = fn(actx, i, item)
	if err == nil && opt.PointTimeout > 0 && actx.Err() != nil && ctx.Err() == nil {
		// The attempt blew its deadline but never checked the context (a
		// pure-CPU point): its result is from a run that should have been
		// cut off, so fail it like any other overrun.
		err = actx.Err()
	}
	return r, err
}

// BackoffDelay is the jittered exponential backoff before retry `attempt`
// of point `index`: base * 2^attempt scaled by a deterministic jitter
// factor in [0.5, 1.5) so simultaneous retries of neighboring points
// spread out without consuming any RNG state. Exported because the fabric
// coordinator applies the same policy to shard re-dispatches.
func BackoffDelay(base time.Duration, index, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt
	if shift > 16 {
		shift = 16
	}
	d := float64(base) * float64(uint64(1)<<shift)
	// splitmix64-style mix of (index, attempt) -> [0.5, 1.5).
	h := uint64(index)*0x9E3779B97F4A7C15 + uint64(attempt) + 0xBF58476D1CE4E5B9
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	frac := 0.5 + float64(h>>11)/float64(uint64(1)<<53)
	return time.Duration(d * frac)
}

// sleepCtx waits for d or until ctx is cancelled; it reports whether the
// full delay elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
