package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runPlain runs fn through Run with only a worker bound and returns the
// results and the cause of the lowest-index failure: the
// sequential-equivalent contract a plain parallel loop keeps.
func runPlain[T, R any](workers int, items []T, fn func(int, T) (R, error)) ([]R, error) {
	rep, err := Run(context.Background(), Options{Workers: workers}, items,
		func(_ context.Context, i int, item T) (R, error) { return fn(i, item) })
	var pe *PointError
	if errors.As(err, &pe) {
		err = pe.Err
	}
	return rep.Results, err
}

// TestMapOrdersResults checks output order matches input order no matter
// how the scheduler interleaves the workers.
func TestMapOrdersResults(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 3, 16, 64} {
		got, err := runPlain(workers, items, func(i, v int) (string, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // perturb completion order
			}
			return fmt.Sprintf("%d^2=%d", v, v*v), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range items {
			want := fmt.Sprintf("%d^2=%d", v, v*v)
			if got[i] != want {
				t.Fatalf("workers=%d: result %d = %q, want %q", workers, i, got[i], want)
			}
		}
	}
}

// TestMapReturnsLowestIndexError checks the sequential-equivalent error
// contract: with several failing items, the reported error is the first
// one a plain loop would have hit.
func TestMapReturnsLowestIndexError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	wantErr := errors.New("boom 3")
	for _, workers := range []int{1, 4} {
		_, err := runPlain(workers, items, func(i, v int) (int, error) {
			switch i {
			case 3:
				return 0, wantErr
			case 5:
				return 0, errors.New("boom 5")
			}
			return v, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		if workers == 1 && err != wantErr {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, wantErr)
		}
		// Parallel runs may skip item 3 only if it failed after 5 started;
		// dispatch order guarantees item 3 was dispatched before item 5,
		// so its error must win.
		if err.Error() != wantErr.Error() && err.Error() != "boom 5" {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if workers == 4 && err != wantErr {
			t.Fatalf("workers=%d: got %v, want lowest-index error %v", workers, err, wantErr)
		}
	}
}

// TestMapSkipsAfterFailure checks not-yet-started items are skipped once a
// failure is recorded (bounded work on error).
func TestMapSkipsAfterFailure(t *testing.T) {
	var ran atomic.Int64
	items := make([]int, 1000)
	_, err := runPlain(2, items, func(i, v int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		time.Sleep(100 * time.Microsecond)
		return v, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if n := ran.Load(); n > 100 {
		t.Errorf("%d items ran after an index-0 failure; expected early exit", n)
	}
}

// TestMapEmptyAndBounds covers the degenerate inputs.
func TestMapEmptyAndBounds(t *testing.T) {
	got, err := runPlain(4, nil, func(i, v int) (int, error) { return v, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: got %v, %v", got, err)
	}
	got, err = runPlain(100, []int{7}, func(i, v int) (int, error) { return v * 2, nil })
	if err != nil || len(got) != 1 || got[0] != 14 {
		t.Fatalf("single item: got %v, %v", got, err)
	}
}

// TestMapConcurrencyBounded checks the pool never runs more than the
// requested number of calls at once.
func TestMapConcurrencyBounded(t *testing.T) {
	prev := runtime.GOMAXPROCS(8) // allow real overlap even on 1-core CI
	defer runtime.GOMAXPROCS(prev)
	const workers = 3
	var inFlight, peak atomic.Int64
	items := make([]int, 60)
	_, err := runPlain(workers, items, func(i, v int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		inFlight.Add(-1)
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// TestMapKeepsPartialResults checks the satellite fix: a failing point no
// longer throws away every completed result.
func TestMapKeepsPartialResults(t *testing.T) {
	items := []int{10, 20, 30, 40}
	boom := errors.New("boom")
	got, err := runPlain(1, items, func(i, v int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return v * 2, nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(got) != len(items) {
		t.Fatalf("len(results) = %d, want %d", len(got), len(items))
	}
	if got[0] != 20 || got[1] != 40 {
		t.Errorf("completed prefix lost: %v", got)
	}
	if got[2] != 0 {
		t.Errorf("failed slot = %d, want zero value", got[2])
	}
}

// TestRunRetriesTransientFailure checks the retry policy: a point that
// fails its first attempts and then succeeds contributes a normal result.
func TestRunRetriesTransientFailure(t *testing.T) {
	var attempts atomic.Int64
	rep, err := Run(context.Background(), Options{Workers: 2, Retries: 2}, []int{1, 2, 3},
		func(_ context.Context, i, v int) (int, error) {
			if i == 1 && attempts.Add(1) < 3 {
				return 0, errors.New("transient")
			}
			return v * v, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("point 1 ran %d times, want 3", got)
	}
	want := []int{1, 4, 9}
	for i, w := range want {
		if !rep.Done[i] || rep.Results[i] != w {
			t.Errorf("result %d = %d (done=%v), want %d", i, rep.Results[i], rep.Done[i], w)
		}
	}
}

// TestRunExhaustsRetries checks the failure report after the policy gives
// up: attempt count, index, wrapped error, and OnPointError observations.
func TestRunExhaustsRetries(t *testing.T) {
	boom := errors.New("persistent")
	var observed atomic.Int64
	rep, err := Run(context.Background(), Options{
		Workers: 1, Retries: 2,
		OnPointError: func(index, attempt int, err error) {
			observed.Add(1)
			if index != 0 {
				t.Errorf("OnPointError index = %d, want 0", index)
			}
		},
	}, []int{5}, func(_ context.Context, i, v int) (int, error) {
		return 0, boom
	})
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PointError", err)
	}
	if pe.Index != 0 || pe.Attempts != 3 || !errors.Is(pe, boom) {
		t.Errorf("PointError = %+v", pe)
	}
	if len(rep.Failed) != 1 {
		t.Errorf("Failed = %v, want 1 entry", rep.Failed)
	}
	if observed.Load() != 3 {
		t.Errorf("OnPointError fired %d times, want 3", observed.Load())
	}
}

// TestRunRecoversPanics checks panic isolation: a panicking point becomes
// a point failure instead of tearing down the process.
func TestRunRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rep, err := Run(context.Background(), Options{Workers: workers}, []int{0, 1, 2, 3},
			func(_ context.Context, i, v int) (int, error) {
				if i == 1 {
					panic("kaboom")
				}
				return v, nil
			})
		var pe *PointError
		if !errors.As(err, &pe) || pe.Index != 1 {
			t.Fatalf("workers=%d: err = %v, want PointError at index 1", workers, err)
		}
		if !rep.Done[0] {
			t.Errorf("workers=%d: point 0 result lost", workers)
		}
	}
}

// TestRunPointTimeout checks the per-point deadline: a point that honors
// its context fails with DeadlineExceeded and is retried per policy.
func TestRunPointTimeout(t *testing.T) {
	var attempts atomic.Int64
	_, err := Run(context.Background(), Options{Workers: 1, Retries: 1, PointTimeout: 5 * time.Millisecond},
		[]int{0}, func(ctx context.Context, i, v int) (int, error) {
			attempts.Add(1)
			<-ctx.Done()
			return 0, ctx.Err()
		})
	var pe *PointError
	if !errors.As(err, &pe) || !errors.Is(pe, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want PointError wrapping DeadlineExceeded", err)
	}
	if attempts.Load() != 2 {
		t.Errorf("attempts = %d, want 2 (deadline overruns retry)", attempts.Load())
	}
}

// TestRunDegrade checks Degrade mode: every healthy point completes, every
// failure is reported, and Run returns no error.
func TestRunDegrade(t *testing.T) {
	items := make([]int, 20)
	for i := range items {
		items[i] = i
	}
	rep, err := Run(context.Background(), Options{Workers: 4, Degrade: true}, items,
		func(_ context.Context, i, v int) (int, error) {
			if i%5 == 0 {
				return 0, fmt.Errorf("fail %d", i)
			}
			return v * 10, nil
		})
	if err != nil {
		t.Fatalf("degrade mode returned error: %v", err)
	}
	if len(rep.Failed) != 4 {
		t.Fatalf("Failed = %d points, want 4", len(rep.Failed))
	}
	for j, pe := range rep.Failed {
		if pe.Index != j*5 {
			t.Errorf("Failed[%d].Index = %d, want %d (ascending order)", j, pe.Index, j*5)
		}
	}
	for i := range items {
		if i%5 == 0 {
			if rep.Done[i] {
				t.Errorf("failed point %d marked done", i)
			}
			continue
		}
		if !rep.Done[i] || rep.Results[i] != i*10 {
			t.Errorf("healthy point %d lost: done=%v result=%d", i, rep.Done[i], rep.Results[i])
		}
	}
}

// TestRunCancellation checks that cancelling the sweep context stops
// dispatch, returns ctx.Err(), and keeps completed results.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var completed atomic.Int64
	items := make([]int, 100)
	rep, err := Run(ctx, Options{Workers: 2}, items,
		func(ctx context.Context, i, v int) (int, error) {
			if completed.Add(1) == 4 {
				cancel()
			}
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done := 0
	for i, ok := range rep.Done {
		if ok {
			done++
			if rep.Results[i] != i {
				t.Errorf("result %d corrupted: %d", i, rep.Results[i])
			}
		}
	}
	if done < 4 || done > 20 {
		t.Errorf("completed %d points; want the pre-cancellation handful preserved", done)
	}
}

// TestRunCancelledBeforeStart checks an already-cancelled context runs
// nothing.
func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	rep, err := Run(ctx, Options{Workers: 3}, []int{1, 2, 3},
		func(_ context.Context, i, v int) (int, error) {
			ran.Add(1)
			return v, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d points ran under a cancelled context", n)
	}
	if len(rep.Failed) != 0 {
		t.Errorf("cancellation produced point failures: %v", rep.Failed)
	}
}

// TestBackoffDelayDeterministic checks the jitter is a pure function of
// (index, attempt) and stays within the documented envelope.
func TestBackoffDelayDeterministic(t *testing.T) {
	base := 10 * time.Millisecond
	for attempt := 0; attempt < 4; attempt++ {
		for index := 0; index < 8; index++ {
			d1 := BackoffDelay(base, index, attempt)
			d2 := BackoffDelay(base, index, attempt)
			if d1 != d2 {
				t.Fatalf("jitter not deterministic at (%d, %d): %v vs %v", index, attempt, d1, d2)
			}
			lo := time.Duration(float64(base) * float64(uint(1)<<attempt) * 0.5)
			hi := time.Duration(float64(base) * float64(uint(1)<<attempt) * 1.5)
			if d1 < lo || d1 >= hi {
				t.Errorf("delay(%d, %d) = %v outside [%v, %v)", index, attempt, d1, lo, hi)
			}
		}
	}
	if d := BackoffDelay(0, 3, 1); d != 0 {
		t.Errorf("zero base should not delay, got %v", d)
	}
}

// TestOptionsValidate pins the policy check every binary runs on its
// parsed flags: zero workers is valid (all cores), a negative worker or
// retry count is refused by name.
func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		opt  Options
		want string // "" when valid
	}{
		{Options{}, ""},
		{Options{Workers: 1, Retries: 2}, ""},
		{Options{Workers: -1}, "sweep-workers = -1"},
		{Options{Retries: -1}, "retries = -1"},
	} {
		err := tc.opt.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", tc.opt, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%+v: error %v, want one naming %q", tc.opt, err, tc.want)
		}
	}
}

// TestRunZeroWorkersUsesAllCores checks that Workers 0 means GOMAXPROCS:
// the first GOMAXPROCS points each wait until all of them are running,
// which only a pool of at least that size lets happen.
func TestRunZeroWorkersUsesAllCores(t *testing.T) {
	const procs = 4
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	var started atomic.Int64
	all := make(chan struct{})
	_, err := runPlain(0, make([]int, 2*procs), func(i, v int) (int, error) {
		if i >= procs {
			return v, nil
		}
		if started.Add(1) == procs {
			close(all)
		}
		select {
		case <-all:
			return v, nil
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("point %d: only %d of %d points ran at once", i, started.Load(), procs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
