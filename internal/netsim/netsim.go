// Package netsim models the multi-hop communication substrate the paper
// assumes but does not simulate: sensors form a unit-disk graph over their
// communication range and forward detection reports to a base station with
// greedy geographic forwarding (GF/GPSR-style). The paper argues that with a
// 6 km communication range every report reaches the base within one
// 1-minute sensing period (at most ~6 hops); this package lets experiments
// verify that claim for any deployment instead of assuming it.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

// ErrNetwork reports invalid network construction arguments.
var ErrNetwork = errors.New("netsim: invalid network")

// Network is a static unit-disk communication graph over node positions.
// It keeps no adjacency: one comm-range grid over the nodes answers every
// neighbourhood query, and the component count and the per-base forwarding
// tables (see Routing) are filled from it on first use.
type Network struct {
	idx       field.Index // the nodes, in cells of the comm range
	commRange float64

	mu     sync.Mutex
	nComp  int              // connected components; -1 until counted
	routes map[int]*Routing // lazily built all-alive tables, keyed by base
}

// New builds the unit-disk graph: nodes are adjacent when within commRange
// of each other. bounds must contain the deployment (it sizes the internal
// spatial index).
func New(nodes []geom.Point, commRange float64, bounds geom.Rect) (*Network, error) {
	if err := checkGeometry(commRange, bounds); err != nil {
		return nil, err
	}
	n := &Network{commRange: commRange, nComp: -1}
	if err := n.idx.Rebuild(nodes, bounds, bounds, commRange); err != nil {
		return nil, err
	}
	return n, nil
}

// Components returns the number of connected components (0 for an empty
// network). The first call counts them with one breadth-first sweep.
func (n *Network) Components() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.nComp >= 0 {
		return n.nComp
	}
	seen := make([]bool, n.idx.Len())
	var queue []int32
	var near []int
	n.nComp = 0
	for i := range seen {
		if seen[i] {
			continue
		}
		n.nComp++
		seen[i] = true
		queue = append(queue[:0], int32(i))
		for head := 0; head < len(queue); head++ {
			near = n.idx.QueryCircle(n.idx.Point(int(queue[head])), n.commRange, near[:0])
			for _, v := range near {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, int32(v))
				}
			}
		}
	}
	return n.nComp
}

// routing returns the all-alive forwarding table toward base, built on
// first use and shared by every Delivery and Send to that base. The table
// reads the network's own index (a copy of the Index value shares its
// backing arrays), so it must never be Rebuilt; only this package can
// reach it.
func (n *Network) routing(base int) *Routing {
	n.mu.Lock()
	defer n.mu.Unlock()
	if r, ok := n.routes[base]; ok {
		return r
	}
	r := &Routing{idx: n.idx, commRange: n.commRange}
	r.aim(base)
	if n.routes == nil {
		n.routes = make(map[int]*Routing, 1)
	}
	n.routes[base] = r
	return r
}

// checkGeometry validates a unit-disk graph's comm range and field bounds.
func checkGeometry(commRange float64, bounds geom.Rect) error {
	if commRange <= 0 || math.IsNaN(commRange) {
		return fmt.Errorf("comm range %v: %w", commRange, ErrNetwork)
	}
	if bounds.Area() <= 0 {
		return fmt.Errorf("empty bounds: %w", ErrNetwork)
	}
	return nil
}

// checkIDs validates node ids against a network of n nodes.
func checkIDs(n int, ids ...int) error {
	for _, id := range ids {
		if id < 0 || id >= n {
			return fmt.Errorf("node id %d out of range [0,%d): %w", id, n, ErrNetwork)
		}
	}
	return nil
}

// DeliveryStats summarizes report delivery from every node to a base
// station.
type DeliveryStats struct {
	// Nodes is the number of nodes evaluated (excluding the base).
	Nodes int
	// Reachable counts nodes with any multi-hop path to the base.
	Reachable int
	// GreedyOK counts nodes whose greedy route succeeds without perimeter
	// recovery.
	GreedyOK int
	// MaxHops and MeanHops summarize shortest-path hop counts over
	// reachable nodes.
	MaxHops  int
	MeanHops float64
	// WithinBudget counts reachable nodes whose shortest path completes
	// within the latency budget.
	WithinBudget int
}

// Delivery evaluates delivery of a report from every node to the base
// station with the given per-hop latency against a total budget (the
// sensing period). This is the paper's "6-hop end-to-end communication can
// be easily finished within a single sensing period" check, made
// quantitative. It reads the per-base table's BFS hop counts and its
// memoized greedy walks, so a later Send to the same base walks nothing
// twice.
func (n *Network) Delivery(base int, perHop, budget time.Duration) (DeliveryStats, error) {
	if err := checkIDs(n.idx.Len(), base); err != nil {
		return DeliveryStats{}, err
	}
	if perHop <= 0 || budget <= 0 {
		return DeliveryStats{}, fmt.Errorf("perHop %v, budget %v: %w", perHop, budget, ErrNetwork)
	}
	r := n.routing(base)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bfsLocked()
	stats := DeliveryStats{Nodes: n.idx.Len() - 1}
	var hopSum int
	maxHops := int(budget / perHop)
	for i, h := range r.hops {
		if i == base || h < 0 {
			continue
		}
		hops := int(h)
		stats.Reachable++
		hopSum += hops
		stats.MaxHops = max(stats.MaxHops, hops)
		if hops <= maxHops {
			stats.WithinBudget++
		}
		if r.greedyHopsLocked(int32(i)) >= 0 {
			stats.GreedyOK++
		}
	}
	if stats.Reachable > 0 {
		stats.MeanHops = float64(hopSum) / float64(stats.Reachable)
	}
	return stats, nil
}
