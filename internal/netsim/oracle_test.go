package netsim

import (
	"time"

	"github.com/groupdetect/gbd/internal/geom"
)

// unitDisk is a brute-force reference for the package's routing: O(N²)
// adjacency over the alive nodes, BFS hop counts to the base, and
// strict-argmin greedy walks. It shares no code with the package. Greedy
// ties go to the lowest id: random deployments never tie, and
// tieDeployment puts its tied nodes in one grid cell, where QueryCircle
// reports ids in ascending order too.
type unitDisk struct {
	pts   []geom.Point
	alive []bool // nil means every node is alive
	base  int
	adj   [][]int // alive neighbours of each alive node, ascending ids
	hops  []int   // BFS hop count to the base; -1 unreachable or dead
}

func newUnitDisk(pts []geom.Point, r float64, alive []bool, base int) *unitDisk {
	u := &unitDisk{pts: pts, alive: alive, base: base, adj: make([][]int, len(pts)), hops: make([]int, len(pts))}
	for i := range pts {
		for j := range pts {
			if i != j && u.live(i) && u.live(j) && dist2(pts[i], pts[j]) <= r*r {
				u.adj[i] = append(u.adj[i], j)
			}
		}
	}
	for i := range u.hops {
		u.hops[i] = -1
	}
	u.hops[base] = 0
	for q := []int{base}; len(q) > 0; q = q[1:] {
		for _, v := range u.adj[q[0]] {
			if u.hops[v] < 0 {
				u.hops[v] = u.hops[q[0]] + 1
				q = append(q, v)
			}
		}
	}
	return u
}

func (u *unitDisk) live(i int) bool { return u.alive == nil || u.alive[i] }

func dist2(a, b geom.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// greedy returns the length of the greedy walk from src to the base, each
// hop to the neighbour strictly closest to the base, or -1 when the walk
// reaches a node with no strictly closer neighbour first.
func (u *unitDisk) greedy(src int) int {
	goal := u.pts[u.base]
	hops := 0
	for cur := src; cur != u.base; hops++ {
		next, bestD := -1, dist2(u.pts[cur], goal)
		for _, v := range u.adj[cur] {
			if d := dist2(u.pts[v], goal); d < bestD {
				next, bestD = v, d
			}
		}
		if next < 0 {
			return -1
		}
		cur = next
	}
	return hops
}

// route returns what Send reports for src on a lossless channel: the
// greedy walk's length when it reaches the base, else the BFS repair's
// with rerouted set, else Lost.
func (u *unitDisk) route(src int) (out Outcome, hops int, rerouted bool) {
	if g := u.greedy(src); g >= 0 {
		return Delivered, g, false
	}
	if u.hops[src] < 0 {
		return Lost, 0, true
	}
	return Delivered, u.hops[src], true
}

// components counts the connected components of the alive nodes.
func (u *unitDisk) components() int {
	seen := make([]bool, len(u.pts))
	n := 0
	for i := range u.pts {
		if seen[i] || !u.live(i) {
			continue
		}
		n++
		seen[i] = true
		for q := []int{i}; len(q) > 0; q = q[1:] {
			for _, v := range u.adj[q[0]] {
				if !seen[v] {
					seen[v] = true
					q = append(q, v)
				}
			}
		}
	}
	return n
}

// delivery is Network.Delivery's summary, recomputed from the reference.
func (u *unitDisk) delivery(perHop, budget time.Duration) DeliveryStats {
	s := DeliveryStats{Nodes: len(u.pts) - 1}
	sum := 0
	for i, h := range u.hops {
		if i == u.base || h < 0 {
			continue
		}
		s.Reachable++
		sum += h
		s.MaxHops = max(s.MaxHops, h)
		if time.Duration(h)*perHop <= budget {
			s.WithinBudget++
		}
		if u.greedy(i) >= 0 {
			s.GreedyOK++
		}
	}
	if s.Reachable > 0 {
		s.MeanHops = float64(sum) / float64(s.Reachable)
	}
	return s
}

// lossless is a channel on which every hop succeeds at the first attempt
// and nothing is late, so Send's outcome is its routing alone.
var lossless = LossModel{PerHopDelivery: 1, PerHop: time.Second, Budget: time.Hour}

// tieDeployment is a hand-placed network (comm range 10) whose greedy
// walks meet an exact tie: node 6's neighbours 4 and 5 lie at the same
// distance from the base (node 0). The strict argmin takes 4, the first in
// id order, whose walk 6-4-3-2-1-0 reaches the base; node 5 is a void (its
// only neighbour as close to the base is 4, at an equal distance), so
// taking the later tie would strand the walk or lengthen it. Nodes 4, 5
// and 6 share one grid cell, so QueryCircle reports them in id order.
func tieDeployment() (pts []geom.Point, r float64, bounds geom.Rect) {
	return []geom.Point{
		{X: 10, Y: 45}, // 0 base
		{X: 17, Y: 47}, // 1
		{X: 25, Y: 50}, // 2
		{X: 34, Y: 54}, // 3
		{X: 40, Y: 49}, // 4 tie, leads on
		{X: 40, Y: 41}, // 5 tie, void
		{X: 46, Y: 45}, // 6 source
	}, 10, geom.Square(100)
}
