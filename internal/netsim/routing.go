package netsim

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

// ghopsUnknown marks a greedy walk length not yet memoized; -1 marks a walk
// that hits a local minimum before the base.
const ghopsUnknown = -2

// Routing is a lazily filled forwarding table from every node toward one
// base station over an optional alive mask: the greedy geographic next hop
// per node plus, when greedy gets stuck, the BFS shortest-path tree (GPSR
// perimeter-repair stand-in). It keeps no adjacency: a comm-range grid over
// the nodes answers the one neighbourhood query a node's next hop needs, the
// first time a walk reaches that node. A report from a handful of sensors
// therefore costs a handful of queries, not a unit-disk graph build, and
// Reset for a new alive mask only clears the memo.
//
// It is the package's one routing graph: Network's Delivery and Send read a
// per-base all-alive table over the network's index. Greedy forwarding picks
// the strict-argmin alive neighbour, first in QueryCircle order on ties, and
// BFS explores neighbours in that same order; dead nodes neither relay nor
// count as neighbours, so a masked table routes exactly as a table over the
// alive nodes alone would. The loss model consumes randomness only per hop
// attempted, so for a given route length the draws are fixed.
//
// The zero Routing is empty; Rebuild aims it at a deployment. Send, Hops and
// Reset may run concurrently (the memo fills under a lock); Rebuild may not
// run concurrently with anything else.
type Routing struct {
	mu sync.Mutex
	// idx holds the nodes in cells of the comm range. A Network's tables
	// share the network's index arrays and are never Rebuilt.
	idx       field.Index
	commRange float64
	base      int
	goal      geom.Point // the base's position
	masked    bool       // alive holds this epoch's mask; false means all alive
	alive     []bool
	ghops     []int32 // memoized greedy walk length; -1 stuck, ghopsUnknown unvisited
	hops      []int32 // BFS hop count to base over alive nodes; -1 unreachable
	bfsDone   bool    // hops is filled for this epoch
	walk      []int32 // scratch for greedy memoization
	queue     []int32 // scratch for BFS
	near      []int   // scratch for neighbourhood queries
}

// Rebuild re-aims the table in place at a new deployment — nodes within
// commRange of each other are neighbours, as in New — and base station,
// reusing its storage. Every node is alive until the next Reset. It leaves
// the table unchanged on error.
func (r *Routing) Rebuild(nodes []geom.Point, commRange float64, bounds geom.Rect, base int) error {
	if err := checkGeometry(commRange, bounds); err != nil {
		return err
	}
	if err := checkIDs(len(nodes), base); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.idx.Rebuild(nodes, bounds, bounds, commRange); err != nil {
		return err
	}
	r.commRange = commRange
	r.aim(base)
	return nil
}

// aim points an indexed table at base with every node alive and the memo
// cleared. Callers hold the lock or own the table outright.
func (r *Routing) aim(base int) {
	r.base = base
	r.goal = r.idx.Point(base)
	r.masked = false
	r.clearLocked()
}

// Hops returns the shortest alive-path hop count from src to the base, or
// -1 when src is unreachable.
func (r *Routing) Hops(src int) (int, error) {
	if err := checkIDs(r.idx.Len(), src); err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bfsLocked()
	return int(r.hops[src]), nil
}

// Reset re-aims the table at a new alive mask (nil means every node is
// alive), which it copies. It only clears the memo; routes are recomputed as
// reports need them. Call it exactly when the mask epoch changes.
func (r *Routing) Reset(alive []bool) error {
	routingResets.Inc()
	n := r.idx.Len()
	if n == 0 {
		return fmt.Errorf("routing table has no deployment: %w", ErrNetwork)
	}
	if alive != nil {
		if len(alive) != n {
			return fmt.Errorf("alive mask length %d, want %d: %w", len(alive), n, ErrNetwork)
		}
		if !alive[r.base] {
			return fmt.Errorf("base station %d is dead in the alive mask: %w", r.base, ErrNetwork)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.masked = alive != nil
	r.alive = append(r.alive[:0], alive...)
	r.clearLocked()
	return nil
}

// clearLocked forgets every memoized route.
func (r *Routing) clearLocked() {
	n := r.idx.Len()
	if cap(r.ghops) < n {
		r.ghops = make([]int32, n)
	}
	r.ghops = r.ghops[:n]
	for i := range r.ghops {
		r.ghops[i] = ghopsUnknown
	}
	r.ghops[r.base] = 0
	r.bfsDone = false
}

// isAlive reports whether node i relays in this epoch.
func (r *Routing) isAlive(i int) bool { return !r.masked || r.alive[i] }

// nextHopLocked returns node i's greedy next hop: the alive neighbour
// strictly closest to the base, first in QueryCircle order on ties, or -1
// when i is dead or no neighbour is closer than i itself. The query returns
// i too, which can never win the strict comparison against its own distance.
func (r *Routing) nextHopLocked(i int32) int32 {
	if !r.isAlive(int(i)) {
		return -1
	}
	p := r.idx.Point(int(i))
	best, bestD := int32(-1), p.Dist2(r.goal)
	r.near = r.idx.QueryCircle(p, r.commRange, r.near[:0])
	for _, v := range r.near {
		if !r.isAlive(v) {
			continue
		}
		if d := r.idx.Point(v).Dist2(r.goal); d < bestD {
			bestD = d
			best = int32(v)
		}
	}
	return best
}

// greedyHopsLocked returns the greedy-forwarding walk length from src to
// the base, or -1 when the walk hits a local minimum first. The first walk
// through a node finds its next hop and memoizes the walk length of every
// node on the way; the walk cannot cycle because each hop is strictly
// closer to the base.
func (r *Routing) greedyHopsLocked(src int32) int32 {
	walk := r.walk[:0]
	cur := src
	g := r.ghops[cur]
	for g == ghopsUnknown {
		next := r.nextHopLocked(cur)
		if next < 0 { // the walk is stuck at cur
			g = -1
			r.ghops[cur] = -1
			break
		}
		walk = append(walk, cur)
		cur = next
		g = r.ghops[cur]
	}
	for i := len(walk) - 1; i >= 0; i-- {
		if g >= 0 {
			g++
		}
		r.ghops[walk[i]] = g
	}
	r.walk = walk[:0]
	return r.ghops[src]
}

// bfsLocked fills the BFS hop counts over alive nodes once per epoch.
func (r *Routing) bfsLocked() {
	if r.bfsDone {
		return
	}
	r.bfsDone = true
	n := r.idx.Len()
	if cap(r.hops) < n {
		r.hops = make([]int32, n)
	}
	r.hops = r.hops[:n]
	for i := range r.hops {
		r.hops[i] = -1
	}
	r.hops[r.base] = 0
	q := append(r.queue[:0], int32(r.base))
	for head := 0; head < len(q); head++ {
		u := q[head]
		r.near = r.idx.QueryCircle(r.idx.Point(int(u)), r.commRange, r.near[:0])
		for _, v := range r.near {
			if r.hops[v] >= 0 || !r.isAlive(v) {
				continue
			}
			r.hops[v] = r.hops[u] + 1
			q = append(q, int32(v))
		}
	}
	r.queue = q[:0]
}

// Send forwards one report from src to the table's base under the loss
// model over the alive nodes: greedy route when it succeeds, BFS shortest-path repair when greedy is stuck,
// Lost when the base is unreachable, then per-hop Bernoulli attempts with
// bounded exponential-backoff retransmission against the latency budget.
func (r *Routing) Send(src int, m LossModel, rng *rand.Rand) (Delivery, error) {
	if err := checkIDs(r.idx.Len(), src); err != nil {
		return Delivery{}, err
	}
	if err := m.Validate(); err != nil {
		return Delivery{}, err
	}
	if src == r.base {
		d := Delivery{Outcome: Delivered}
		recordDelivery(d)
		return d, nil
	}
	r.mu.Lock()
	gh := r.greedyHopsLocked(int32(src))
	bfs := int32(-1)
	if gh < 0 {
		r.bfsLocked()
		bfs = r.hops[src]
	}
	r.mu.Unlock()
	var d Delivery
	switch {
	case gh >= 0:
		d = Delivery{Hops: int(gh)}
	case bfs < 0:
		d = Delivery{Outcome: Lost, Rerouted: true}
		recordDelivery(d)
		return d, nil
	default:
		d = Delivery{Hops: int(bfs), Rerouted: true}
	}
	for hop := 0; hop < d.Hops; hop++ {
		sent := false
		for attempt := 0; attempt <= m.MaxRetries; attempt++ {
			if attempt > 0 {
				d.Latency += m.Backoff << (attempt - 1)
				sendRetransmissions.Inc()
			}
			d.Attempts++
			d.Latency += m.PerHop
			if rng.Float64() < m.PerHopDelivery {
				sent = true
				break
			}
		}
		if !sent {
			d.Outcome = Lost
			recordDelivery(d)
			return d, nil
		}
	}
	d.Outcome = Delivered
	if d.Latency > m.Budget {
		d.Outcome = Late
	}
	recordDelivery(d)
	return d, nil
}
