package main

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// counter numbers the arrivals of a phase as its payloads.
func counter() func() int {
	i := -1
	return func() int { i++; return i }
}

// TestPacerChargesStallsToLatencyNotLateness stalls the single connection
// on arrival 0: the arrivals queued behind it must carry the stall in
// their latency (timed from their due time) while the pacer, which never
// waits for a connection, keeps dispatching on time.
func TestPacerChargesStallsToLatencyNotLateness(t *testing.T) {
	const stall = 150 * time.Millisecond
	ph := runOpenLoop(context.Background(), openLoop{lanes: 1, workers: 1, grace: time.Second},
		200, 250*time.Millisecond, counter(), func(ctx context.Context, lane, i int) error {
			if i == 0 {
				time.Sleep(stall)
			}
			return nil
		})
	if len(ph.arrivals) != 50 {
		t.Fatalf("%d arrivals, want 200/s * 0.25 s = 50", len(ph.arrivals))
	}
	ok, failed, unanswered, unsent := ph.counts()
	if ok != 50 || failed+unanswered+unsent != 0 {
		t.Fatalf("counts ok=%d failed=%d unanswered=%d unsent=%d, want all 50 ok", ok, failed, unanswered, unsent)
	}
	// Arrival 10 was due at 50 ms and could not start before the stall
	// ended at 150 ms.
	a := ph.arrivals[10]
	if a.due != 50*time.Millisecond {
		t.Fatalf("arrival 10 due at %v, want 50ms", a.due)
	}
	if a.done < stall-a.due || a.wait < stall-a.due {
		t.Errorf("arrival 10: latency %v wait %v, want both >= %v (the stall it queued behind)", a.done, a.wait, stall-a.due)
	}
	if over, n := ph.lateOver(50 * time.Millisecond); over != 0 || n != 50 {
		t.Errorf("%d of %d arrivals dispatched over 50ms late: the pacer waited on the stalled connection", over, n)
	}
	if m := ph.inflightMax.Load(); m != 1 {
		t.Errorf("in flight max %d, want 1 (one connection)", m)
	}
}

func TestPacerAccountsFailuresAndUnanswered(t *testing.T) {
	ph := runOpenLoop(context.Background(), openLoop{lanes: 2, workers: 1, grace: 20 * time.Millisecond},
		100, 100*time.Millisecond, counter(), func(ctx context.Context, lane, i int) error {
			switch {
			case i == 1:
				return errors.New("refused")
			case i == 9: // the last arrival, due at 90 ms, answers after the window
				time.Sleep(50 * time.Millisecond)
			}
			return nil
		})
	ok, failed, unanswered, unsent := ph.counts()
	if ok != 8 || failed != 1 || unanswered != 1 || unsent != 0 {
		t.Fatalf("counts ok=%d failed=%d unanswered=%d unsent=%d, want 8/1/1/0", ok, failed, unanswered, unsent)
	}
	if got := ph.p99All(); !math.IsInf(got, 1) {
		t.Errorf("p99All = %v, want +Inf: 2 of 10 arrivals missed", got)
	}
	if got := len(ph.latencies()); got != 8 {
		t.Errorf("%d latencies, want the 8 answered", got)
	}
}

// TestBisectMonotone drives bisect with a synthetic system whose p99
// crosses the limit at capacity c: the estimate must stay inside the
// bracket, within the last probe interval of c, and never decrease as c
// grows.
func TestBisectMonotone(t *testing.T) {
	const lo, hi, limit = 1000.0, 9000.0, 10.0
	step := (hi - lo) / 32
	prev := 0.0
	for c := lo + step + 1; c <= hi-step; c += 37 {
		sys := func(rate float64) (float64, bool) {
			p99 := limit * rate / c // linear in load, limit reached at c
			return p99, p99 <= limit
		}
		est, steps := bisect(lo, hi, limit, 5, sys)
		if len(steps) != 5 {
			t.Fatalf("c=%v: %d probes, want 5", c, len(steps))
		}
		if !(est > lo && est < hi) {
			t.Fatalf("c=%v: estimate %v outside (%v, %v)", c, est, lo, hi)
		}
		if math.Abs(est-c) > step {
			t.Errorf("c=%v: estimate %v further than one interval %v", c, est, step)
		}
		if est < prev {
			t.Errorf("c=%v: estimate %v below the estimate %v for a smaller capacity", c, est, prev)
		}
		prev = est
	}
	// A system that never holds the limit reports the bracket's edge.
	if est, _ := bisect(lo, hi, limit, 5, func(float64) (float64, bool) { return math.Inf(1), false }); est != lo {
		t.Errorf("never holds: estimate %v, want %v", est, lo)
	}
}
