package serve

import (
	"context"
	"errors"
	"sync"
)

// flightGroup collapses concurrent computations of the same cache key into
// one execution (in-flight dedup, the singleflight pattern): the first
// request for a key becomes the leader and runs fn; requests arriving
// while it runs block on the leader's result instead of recomputing.
// Results are not retained after the flight lands — durable reuse is the
// result cache's job.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// flightCall is one in-flight computation.
type flightCall struct {
	done chan struct{}
	body []byte
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn under key, deduplicating concurrent callers. It returns fn's
// result and whether this caller was a follower (shared someone else's
// execution). fn runs once per flight; its error is delivered to every
// caller of that flight but never cached — except that a flight ended by
// its leader's cancellation or deadline is not the follower's to share:
// a follower whose own ctx is still live runs the key again, as the next
// flight's leader or one of its followers.
func (g *flightGroup) do(ctx context.Context, key string, fn func() ([]byte, error)) (body []byte, err error, shared bool) {
	for {
		g.mu.Lock()
		c, ok := g.calls[key]
		if !ok {
			break
		}
		g.mu.Unlock()
		dedupFollowers.Inc()
		<-c.done
		if ctx.Err() == nil && (errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
			continue
		}
		return c.body, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.body, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.body, c.err, false
}
