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

// ErrUnreachable reports that no route exists.
var ErrUnreachable = errors.New("netsim: destination unreachable")

// ErrGreedyStuck reports a greedy-forwarding local minimum (a void with no
// neighbor closer to the destination).
var ErrGreedyStuck = errors.New("netsim: greedy forwarding stuck in local minimum")

// Network is a static unit-disk communication graph over node positions.
type Network struct {
	nodes     []geom.Point
	commRange float64
	bounds    geom.Rect
	adj       [][]int32 // per-node views into one shared backing array
	comp      []int     // connected component id per node
	nComp     int

	mu     sync.Mutex
	routes map[int]*Routing // lazily built all-alive tables, keyed by base
}

// New builds the unit-disk graph: nodes are adjacent when within commRange
// of each other. bounds must contain the deployment (it sizes the internal
// spatial index).
func New(nodes []geom.Point, commRange float64, bounds geom.Rect) (*Network, error) {
	if err := checkGeometry(commRange, bounds); err != nil {
		return nil, err
	}
	n := &Network{
		nodes:     append([]geom.Point(nil), nodes...),
		commRange: commRange,
		bounds:    bounds,
	}
	sc := buildPool.Get().(*buildScratch)
	defer buildPool.Put(sc)
	if err := sc.idx.Rebuild(n.nodes, bounds, commRange); err != nil {
		return nil, err
	}
	// Enumerate each within-range pair once; the stream's ordering
	// guarantee (see field.Index.Pairs) means one in-order sweep fills
	// every node's neighbor list in exactly the order a QueryCircle per
	// node produced, at half the distance tests.
	pairs := sc.idx.Pairs(commRange, sc.pairs[:0])
	sc.pairs = pairs
	nn := len(n.nodes)
	if cap(sc.starts) < nn+1 {
		sc.starts = make([]int32, nn+1)
	} else {
		sc.starts = sc.starts[:nn+1]
		for i := range sc.starts {
			sc.starts[i] = 0
		}
	}
	starts := sc.starts
	for _, e := range pairs {
		starts[e[0]+1]++
		starts[e[1]+1]++
	}
	for i := 0; i < nn; i++ {
		starts[i+1] += starts[i]
	}
	// Neighbor lists share one exactly-sized backing array; starts[i] is
	// node i's fill cursor and ends at node i's list end.
	backing := make([]int32, starts[nn])
	for _, e := range pairs {
		backing[starts[e[0]]] = e[1]
		starts[e[0]]++
		backing[starts[e[1]]] = e[0]
		starts[e[1]]++
	}
	n.adj = make([][]int32, nn)
	lo := int32(0)
	for i := 0; i < nn; i++ {
		hi := starts[i]
		n.adj[i] = backing[lo:hi:hi]
		lo = hi
	}
	n.computeComponents()
	return n, nil
}

// buildScratch recycles New's transient state — the spatial index and the
// pair stream — across network constructions, keeping per-trial graph
// builds off the heap.
type buildScratch struct {
	idx    field.Index
	pairs  [][2]int32
	starts []int32
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// bfsScratch recycles Delivery's BFS state across calls.
type bfsScratch struct {
	dist  []int
	queue []int32
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

func (n *Network) computeComponents() {
	n.comp = make([]int, len(n.nodes))
	for i := range n.comp {
		n.comp[i] = -1
	}
	id := 0
	queue := make([]int32, 0, len(n.nodes))
	for i := range n.nodes {
		if n.comp[i] >= 0 {
			continue
		}
		n.comp[i] = id
		queue = append(queue[:0], int32(i))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range n.adj[u] {
				if n.comp[v] < 0 {
					n.comp[v] = id
					queue = append(queue, v)
				}
			}
		}
		id++
	}
	n.nComp = id
}

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.nodes) }

// Node returns the position of node i.
func (n *Network) Node(i int) geom.Point { return n.nodes[i] }

// Degree returns the number of neighbors of node i.
func (n *Network) Degree(i int) int { return len(n.adj[i]) }

// Components returns the number of connected components (0 for an empty
// network).
func (n *Network) Components() int { return n.nComp }

// Connected reports whether a and b are in the same component.
func (n *Network) Connected(a, b int) bool {
	return n.comp[a] == n.comp[b]
}

// ShortestHops returns the minimum hop count from src to dst by BFS.
func (n *Network) ShortestHops(src, dst int) (int, error) {
	if err := n.checkIDs(src, dst); err != nil {
		return 0, err
	}
	if src == dst {
		return 0, nil
	}
	if !n.Connected(src, dst) {
		return 0, fmt.Errorf("node %d to %d: %w", src, dst, ErrUnreachable)
	}
	dist := make([]int, len(n.nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range n.adj[u] {
			if dist[v] >= 0 {
				continue
			}
			dist[v] = dist[u] + 1
			if int(v) == dst {
				return dist[v], nil
			}
			queue = append(queue, v)
		}
	}
	return 0, fmt.Errorf("node %d to %d: %w", src, dst, ErrUnreachable)
}

// GreedyRoute returns the node sequence of greedy geographic forwarding
// from src to dst: each hop goes to the neighbor strictly closest to the
// destination. It fails with ErrGreedyStuck at a local minimum (the
// situation GPSR's perimeter mode repairs; ShortestHops shows whether a
// detour exists).
func (n *Network) GreedyRoute(src, dst int) ([]int, error) {
	if err := n.checkIDs(src, dst); err != nil {
		return nil, err
	}
	path := []int{src}
	cur := src
	goal := n.nodes[dst]
	for cur != dst {
		best := -1
		bestD := n.nodes[cur].Dist2(goal)
		for _, v := range n.adj[cur] {
			if d := n.nodes[v].Dist2(goal); d < bestD {
				bestD = d
				best = int(v)
			}
		}
		if best < 0 {
			return path, fmt.Errorf("at node %d toward %d: %w", cur, dst, ErrGreedyStuck)
		}
		cur = best
		path = append(path, cur)
		if len(path) > len(n.nodes) {
			return path, fmt.Errorf("routing loop toward %d: %w", dst, ErrGreedyStuck)
		}
	}
	return path, nil
}

// greedyOK reports whether greedy forwarding from src reaches dst — the
// same walk as GreedyRoute without materializing the path, so Delivery's
// every-node sweep stays off the heap. A strictly-improving walk cannot
// revisit a node, so the hop bound only guards degenerate geometry.
func (n *Network) greedyOK(src, dst int) bool {
	cur := src
	goal := n.nodes[dst]
	for hops := 0; cur != dst; hops++ {
		best := -1
		bestD := n.nodes[cur].Dist2(goal)
		for _, v := range n.adj[cur] {
			if d := n.nodes[v].Dist2(goal); d < bestD {
				bestD = d
				best = int(v)
			}
		}
		if best < 0 || hops >= len(n.nodes) {
			return false
		}
		cur = best
	}
	return true
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

func (n *Network) checkIDs(ids ...int) error {
	return checkIDs(len(n.nodes), ids...)
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
// quantitative.
func (n *Network) Delivery(base int, perHop, budget time.Duration) (DeliveryStats, error) {
	if err := n.checkIDs(base); err != nil {
		return DeliveryStats{}, err
	}
	if perHop <= 0 || budget <= 0 {
		return DeliveryStats{}, fmt.Errorf("perHop %v, budget %v: %w", perHop, budget, ErrNetwork)
	}
	// Single BFS from the base computes all shortest hop counts; the
	// dist/queue scratch is pooled because the fault-injection benchmarks
	// evaluate Delivery per trial.
	sc := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(sc)
	dist := sc.dist
	if cap(dist) < len(n.nodes) {
		dist = make([]int, len(n.nodes))
	} else {
		dist = dist[:len(n.nodes)]
	}
	for i := range dist {
		dist[i] = -1
	}
	dist[base] = 0
	queue := append(sc.queue[:0], int32(base))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range n.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	sc.dist, sc.queue = dist, queue
	stats := DeliveryStats{Nodes: len(n.nodes) - 1}
	var hopSum int
	maxHops := int(budget / perHop)
	for i := range n.nodes {
		if i == base {
			continue
		}
		if dist[i] < 0 {
			continue
		}
		stats.Reachable++
		hopSum += dist[i]
		if dist[i] > stats.MaxHops {
			stats.MaxHops = dist[i]
		}
		if dist[i] <= maxHops {
			stats.WithinBudget++
		}
		if n.greedyOK(i, base) {
			stats.GreedyOK++
		}
	}
	if stats.Reachable > 0 {
		stats.MeanHops = float64(hopSum) / float64(stats.Reachable)
	}
	return stats, nil
}

// HopsFrom returns the shortest hop count from base to every node with a
// single BFS: hops[i] is -1 for nodes disconnected from base. It is the
// bulk companion to ShortestHops.
func (n *Network) HopsFrom(base int) ([]int, error) {
	if err := n.checkIDs(base); err != nil {
		return nil, err
	}
	hops := make([]int, len(n.nodes))
	for i := range hops {
		hops[i] = -1
	}
	hops[base] = 0
	queue := []int32{int32(base)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range n.adj[u] {
			if hops[v] < 0 {
				hops[v] = hops[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return hops, nil
}
