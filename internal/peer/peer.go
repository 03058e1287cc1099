// Package peer is the fleet-membership layer behind gbd-server's
// consistent-hash cache sharding (DESIGN.md §14): every replica is given
// the same ordered fleet view (the -peers flag), builds the same hash
// ring over it, and therefore computes the same owner for every cache
// key — no coordination service, no gossip, just an agreed pure function
// from key to replica. A request whose key is owned elsewhere is
// forwarded to the owner (groupcache-style owner-computes), so N
// replicas deduplicate compute as if they shared one cache.
//
// The package has two halves:
//
//   - Ring: an immutable consistent-hash ring with virtual nodes. Owner
//     lookup walks clockwise from the key's hash point and returns the
//     first member the caller's liveness predicate admits, so ownership
//     re-hashes deterministically around dead replicas.
//   - Health: per-member failure tracking, one Breaker per member
//     behind a mutex — the same Breaker value the fabric coordinator
//     keeps per worker behind its fleet mutex.
//
// Picker binds the two together with the replica's own identity.
package peer

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"time"
)

// virtualNodes spreads each member over this many ring points, so
// ownership stays near-uniform even for 2-3 member fleets and re-hashing
// a dead member's keys spreads over the survivors instead of dumping
// them all on one neighbor.
const virtualNodes = 64

// Ring is an immutable consistent-hash ring over a fixed member list.
// Two rings built from equal member slices (same strings, same order)
// are identical, which is the whole point: every replica must agree on
// every key's owner without talking to each other.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int
}

// NewRing builds a ring with virtualNodes points per member. Members
// must be non-empty and free of duplicates.
func NewRing(members []string) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("peer: ring needs at least one member")
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{
		members: append([]string(nil), members...),
		points:  make([]ringPoint, 0, len(members)*virtualNodes),
	}
	for i, m := range members {
		if m == "" {
			return nil, fmt.Errorf("peer: empty member URL at index %d", i)
		}
		if seen[m] {
			return nil, fmt.Errorf("peer: duplicate member %q", m)
		}
		seen[m] = true
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(m + "#" + strconv.Itoa(v)),
				member: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		return p.member < q.member // total order: ties cannot depend on input order
	})
	return r, nil
}

// Owner returns the member index owning key: the first ring point at or
// clockwise after the key's hash whose member the alive predicate
// admits. A nil predicate admits everyone. If no member is admitted the
// unfiltered owner is returned — with the whole fleet down, computing
// locally beats failing.
func (r *Ring) Owner(key string, alive func(member int) bool) int {
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	first := -1
	asked := make(map[int]bool, len(r.members))
	for off := 0; off < len(r.points) && len(asked) < len(r.members); off++ {
		m := r.points[(start+off)%len(r.points)].member
		if asked[m] {
			continue
		}
		asked[m] = true
		if first < 0 {
			first = m
		}
		if alive == nil || alive(m) {
			return m
		}
	}
	return first
}

// hash64 is FNV-1a over the string. The keys being placed are already
// sha256-derived cache fingerprints, so a fast non-cryptographic mix is
// enough for balance; the member points get the same treatment so both
// sides of the comparison live in one hash space.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Breaker is the one consecutive-failure circuit breaker of the repo:
// closed → open after Threshold consecutive failures → one re-admission
// probe once Cooldown has elapsed → closed on the probe's success, open
// again on its failure. It is a plain value without locking: the fabric
// coordinator guards its workers' breakers with its fleet mutex, and
// Health guards its members' breakers with a mutex.
type Breaker struct {
	// Threshold consecutive failures open a closed circuit; Cooldown is
	// how long it then stays open before the probe.
	Threshold int
	Cooldown  time.Duration

	state    breakerState
	fails    int
	openedAt time.Time
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	// breakerProbing has exactly one re-admission probe in flight; no
	// other dispatch is admitted until the probe reports.
	breakerProbing
)

// Admissible reports whether a new dispatch may go to the member at now.
// An open breaker becomes admissible once per cooldown: that dispatch is
// the re-admission probe.
func (b *Breaker) Admissible(now time.Time) bool {
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return now.Sub(b.openedAt) >= b.Cooldown
	default: // probing: the single probe slot is taken
		return false
	}
}

// ProbeAt reports when an open breaker admits its re-admission probe;
// ok is false for a closed or probing breaker.
func (b *Breaker) ProbeAt() (at time.Time, ok bool) {
	if b.state != breakerOpen {
		return time.Time{}, false
	}
	return b.openedAt.Add(b.Cooldown), true
}

// OnDispatch transitions an open-but-cooled breaker into the probing
// state; it reports whether this dispatch is the re-admission probe.
func (b *Breaker) OnDispatch() (probe bool) {
	if b.state == breakerOpen {
		b.state = breakerProbing
		return true
	}
	return false
}

// OnSuccess closes the circuit (probe success re-admits the member).
func (b *Breaker) OnSuccess() {
	b.fails = 0
	b.state = breakerClosed
}

// OnFailure records one failure and reports whether it opened (or
// re-opened) the circuit: a failed probe re-opens immediately, and a
// closed breaker opens at the consecutive-failure threshold. A straggler
// failure landing while the circuit is already open changes nothing: the
// cooldown is not re-armed and the circuit is not opened twice.
func (b *Breaker) OnFailure(now time.Time) (opened bool) {
	b.fails++
	switch b.state {
	case breakerProbing:
		b.state = breakerOpen
		b.openedAt = now
		return true
	case breakerClosed:
		if b.fails >= b.Threshold {
			b.state = breakerOpen
			b.openedAt = now
			return true
		}
	}
	return false
}

// Health is per-member availability for concurrent request handlers: one
// Breaker per member behind a mutex.
type Health struct {
	mu       sync.Mutex
	breakers []Breaker
}

// NewHealth tracks n members; threshold consecutive failures open a
// member's circuit (<= 0 means 1: a single failed forward re-hashes
// immediately, the cheapest correct default when the fallback is
// computing locally), and cooldown is the open period before the single
// re-admission probe (<= 0 defaults to 2s).
func NewHealth(n, threshold int, cooldown time.Duration) *Health {
	if threshold <= 0 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	h := &Health{breakers: make([]Breaker, n)}
	for i := range h.breakers {
		h.breakers[i] = Breaker{Threshold: threshold, Cooldown: cooldown}
	}
	return h
}

// Alive reports whether member may receive a request now. An open
// member whose cooldown has elapsed transitions to probing and is
// admitted exactly once; further callers see it dead until the probe's
// OnSuccess or OnFailure lands.
func (h *Health) Alive(member int, now time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := &h.breakers[member]
	if !b.Admissible(now) {
		return false
	}
	b.OnDispatch()
	return true
}

// OnSuccess records a successful request to member, closing its circuit.
func (h *Health) OnSuccess(member int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.breakers[member].OnSuccess()
}

// OnFailure records a failed request to member and reports whether this
// failure opened (or re-opened) the circuit.
func (h *Health) OnFailure(member int, now time.Time) (opened bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.breakers[member].OnFailure(now)
}

// Picker is one replica's view of the fleet: the shared ring, the local
// health table, and this replica's own index. It answers the only
// question the serving layer asks — "who owns this key right now?"
type Picker struct {
	ring   *Ring
	health *Health
	self   int
}

// NewPicker builds a Picker for the replica self within the fleet view
// peers. self must appear in peers verbatim — a replica that is not in
// its own fleet view would forward keys it owns. A single failed forward
// opens a member's circuit for cooldown (see NewHealth).
func NewPicker(peers []string, self string, cooldown time.Duration) (*Picker, error) {
	ring, err := NewRing(peers)
	if err != nil {
		return nil, err
	}
	selfIdx := -1
	for i, p := range peers {
		if p == self {
			selfIdx = i
			break
		}
	}
	if selfIdx < 0 {
		return nil, fmt.Errorf("peer: self %q is not in the fleet view %v", self, peers)
	}
	return &Picker{
		ring:   ring,
		health: NewHealth(len(peers), 1, cooldown),
		self:   selfIdx,
	}, nil
}

// Route returns the live owner of key: its member index, URL, and
// whether that owner is this replica (compute locally). The local
// replica is always considered alive to itself.
func (p *Picker) Route(key string) (member int, url string, self bool) {
	now := time.Now()
	member = p.ring.Owner(key, func(m int) bool {
		return m == p.self || p.health.Alive(m, now)
	})
	return member, p.ring.members[member], member == p.self
}

// OnSuccess records a successful forward to member.
func (p *Picker) OnSuccess(member int) { p.health.OnSuccess(member) }

// OnFailure records a failed forward to member, returning whether it
// opened the member's circuit (the caller may want to count deaths).
func (p *Picker) OnFailure(member int) bool {
	return p.health.OnFailure(member, time.Now())
}

// Self returns this replica's member index.
func (p *Picker) Self() int { return p.self }
