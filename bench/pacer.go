package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Arrival states of an open-loop phase.
const (
	stateUnsent     = iota // still queued when the phase window closed
	stateOK                // answered correctly inside the window
	stateFailed            // error, non-200 status or wrong answer
	stateUnanswered        // sent, but answered after the window closed
)

// arrival is the record of one scheduled request. Offsets are from the
// phase start. Latency is taken from the due time, or from the send if
// the pacer's lookahead let the request go out early, so a stall also
// charges the wait it imposes on the arrivals queued behind it.
type arrival struct {
	due    time.Duration
	late   time.Duration // pacer dispatch time minus due time; negative when early
	wait   time.Duration // how long after its due time the request was sent
	done   time.Duration // completion minus min(due, send)
	state  uint8
	queued bool // the pacer dispatched it
}

// openLoop is a fixed-rate arrival schedule over lanes, each served by a
// fixed number of connections. Arrival i goes to lane i%lanes. A request
// waits only for a free connection of its lane, never for earlier
// answers, so an overloaded target builds a queue exactly as it would
// under independent users.
type openLoop struct {
	lanes   int
	workers int           // connections per lane
	grace   time.Duration // how long past the window answers still count
	// reserve, when larger than a phase's arrival count, sizes the phase's
	// buffers instead, so every phase of a run allocates alike and the
	// process's peak memory does not depend on which rates the bisection
	// happened to probe.
	reserve int
}

// phase is the result of one runOpenLoop.
type phase struct {
	window      time.Duration
	arrivals    []arrival
	inflightMax atomic.Int64
}

// job is one dispatched arrival: its index and what to send.
type job[T any] struct {
	i       int
	payload T
}

// runOpenLoop schedules floor(rate*window) arrivals at due times i/rate,
// taking each arrival's payload from next in order, and has send perform
// it on its lane, returning an error if it failed or answered wrongly.
// The pacer wakes, hands every arrival due within the lookahead to its
// lane's queue at once, and sleeps until the next one enters the
// lookahead: overdue arrivals go out immediately and no request waits on
// a per-request sleep. How late the pacer itself ran is recorded per
// arrival and reported separately from latency. Workers stop sending
// once the window plus grace has passed.
func runOpenLoop[T any](ctx context.Context, o openLoop, rate float64, window time.Duration,
	next func() T, send func(ctx context.Context, lane int, payload T) error) *phase {
	n := int(rate * window.Seconds())
	if n < 1 {
		n = 1
	}
	size := max(n, o.reserve)
	ph := &phase{window: window, arrivals: make([]arrival, n, size)}
	due := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
	deadline := window + o.grace

	// Each queue holds every arrival its lane can receive, so the pacer
	// never blocks on a slow lane and its lateness stays its own.
	queues := make([]chan job[T], o.lanes)
	for l := range queues {
		queues[l] = make(chan job[T], size/o.lanes+1)
	}
	start := time.Now()
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for l := 0; l < o.lanes; l++ {
		for w := 0; w < o.workers; w++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				for j := range queues[lane] {
					a := &ph.arrivals[j.i]
					now := time.Since(start)
					if now > deadline || ctx.Err() != nil {
						continue // stateUnsent
					}
					// An early send starts its own clock; a late one is
					// timed from its due time.
					origin := min(now, a.due)
					a.wait = max(0, now-a.due)
					cur := inflight.Add(1)
					for m := ph.inflightMax.Load(); cur > m && !ph.inflightMax.CompareAndSwap(m, cur); m = ph.inflightMax.Load() {
					}
					err := send(ctx, lane, j.payload)
					inflight.Add(-1)
					end := time.Since(start)
					a.done = end - origin
					switch {
					case err != nil:
						a.state = stateFailed
					case end > deadline:
						a.state = stateUnanswered
					default:
						a.state = stateOK
					}
				}
			}(l)
		}
	}

	for i := 0; i < n && ctx.Err() == nil; {
		now := time.Since(start)
		for ; i < n && due(i) <= now+lookahead; i++ {
			ph.arrivals[i].due = due(i)
			ph.arrivals[i].late = now - due(i)
			ph.arrivals[i].queued = true
			queues[i%o.lanes] <- job[T]{i, next()}
		}
		if i < n {
			if d := due(i) - lookahead - time.Since(start); d > 0 {
				time.Sleep(d)
			}
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return ph
}

// counts tallies the phase's arrivals by state.
func (ph *phase) counts() (ok, failed, unanswered, unsent int) {
	for _, a := range ph.arrivals {
		switch a.state {
		case stateOK:
			ok++
		case stateFailed:
			failed++
		case stateUnanswered:
			unanswered++
		default:
			unsent++
		}
	}
	return
}

// latencies returns the answered arrivals' latencies in milliseconds.
func (ph *phase) latencies() []float64 {
	var out []float64
	for _, a := range ph.arrivals {
		if a.state == stateOK {
			out = append(out, ms(a.done))
		}
	}
	return out
}

// p99All is the phase's windowed p99 in milliseconds, the median of the
// p99s of its three thirds, with every arrival that was not answered
// correctly in time counted as missing any limit. A growing backlog fails
// it: queueing delay accumulates, so the later thirds miss the limit. A
// single stalled third does not.
func (ph *phase) p99All() float64 {
	lat := make([]timed, len(ph.arrivals))
	for i, a := range ph.arrivals {
		lat[i] = timed{at: a.due, lat: math.Inf(1)}
		if a.state == stateOK {
			lat[i].lat = ms(a.done)
		}
	}
	p99, _ := windowedP99(lat, ph.window, ph.window/3)
	return p99
}

// lateOver returns how many arrivals the pacer dispatched more than d
// after their due time, and how many it dispatched.
func (ph *phase) lateOver(d time.Duration) (over, dispatched int) {
	for _, a := range ph.arrivals {
		if !a.queued {
			continue
		}
		dispatched++
		if a.late > d {
			over++
		}
	}
	return over, dispatched
}

// lookahead is how far ahead of its due time the pacer may hand out an
// arrival. time.Sleep overshoots by about 1 ms on the 2-core VM the
// benchmark was sized on; without lookahead every arrival would carry up
// to that much pacer lateness in its latency, and a low-rate p50 would
// measure the timer instead of the fleet.
const lookahead = 1500 * time.Microsecond

// lateLimit is the pacer lateness past which a run's generator is
// flagged. The lookahead covers the timer's overshoot, so a pacer that
// runs late at all was kept off the CPU.
const lateLimit = time.Millisecond

// probe is one bisection step: the offered rate, its all-arrival p99 in
// milliseconds and whether it held the limit.
type probe struct {
	rate, p99 float64
	pass      bool
}

// bisect searches [lo, hi] for the highest rate that holds the p99 limit
// with the given number of probes: a passing midpoint raises lo, a
// failing one lowers hi. The estimate interpolates linearly in p99
// between the highest passing and the lowest failing probe, so it is a
// measured value inside the final interval rather than one of its
// 2^probes grid points; with no finite failing p99 it is the highest
// passing rate, and with no pass it is the bracket's lower edge.
func bisect(lo, hi, limit float64, probes int, try func(rate float64) (p99 float64, pass bool)) (float64, []probe) {
	var steps []probe
	passP99, failP99 := math.NaN(), math.NaN()
	for k := 0; k < probes; k++ {
		mid := (lo + hi) / 2
		p99, ok := try(mid)
		steps = append(steps, probe{rate: mid, p99: p99, pass: ok})
		if ok {
			lo, passP99 = mid, p99
		} else {
			hi, failP99 = mid, p99
		}
	}
	est := lo
	if !math.IsNaN(passP99) && !math.IsNaN(failP99) && !math.IsInf(failP99, 0) && failP99 > passP99 {
		f := (limit - passP99) / (failP99 - passP99)
		est = lo + (hi-lo)*math.Max(0, math.Min(1, f))
	}
	return est, steps
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summary is what a finished phase leaves once its per-arrival records
// are dropped, which keeps the benchmark's own heap small next to the
// program it measures.
type summary struct {
	ok, failed, unanswered, unsent int
	p99All                         float64   // see phase.p99All
	lat                            []float64 // answered latencies, ms
	wait, done                     time.Duration
	lateOver, dispatched           int // arrivals dispatched over lateLimit late
	inflightMax                    int64
}

func (ph *phase) summarize() summary {
	s := summary{p99All: ph.p99All(), lat: ph.latencies(), inflightMax: ph.inflightMax.Load()}
	s.ok, s.failed, s.unanswered, s.unsent = ph.counts()
	s.lateOver, s.dispatched = ph.lateOver(lateLimit)
	for _, a := range ph.arrivals {
		if a.state == stateOK {
			s.wait += a.wait
			s.done += a.done
		}
	}
	return s
}

// runClosedLoop keeps every connection of every lane busy for window:
// each sends the next payload as soon as its previous answer arrives. It
// returns how many requests were answered correctly and how many failed
// within the window; answered per second is the fleet's capacity at the
// given number of connections.
func runClosedLoop[T any](ctx context.Context, lanes, workers int, window time.Duration,
	next func() T, send func(ctx context.Context, lane int, payload T) error) (ok, failed int) {
	var mu sync.Mutex
	take := func() T {
		mu.Lock()
		defer mu.Unlock()
		return next()
	}
	var okN, failedN atomic.Int64
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				for ctx.Err() == nil && time.Now().Before(deadline) {
					err := send(ctx, lane, take())
					switch {
					case err != nil:
						failedN.Add(1)
					case time.Now().Before(deadline):
						okN.Add(1)
					}
				}
			}(l)
		}
	}
	wg.Wait()
	return int(okN.Load()), int(failedN.Load())
}
