package netsim

import (
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

func line(n int, spacing float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * spacing, Y: 0}
	}
	return pts
}

func mustNetwork(t *testing.T, pts []geom.Point, r float64, bounds geom.Rect) *Network {
	t.Helper()
	n, err := New(pts, r, bounds)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0, geom.Square(10)); err == nil {
		t.Error("zero range should fail")
	}
	if _, err := New(nil, 5, geom.Rect{}); err == nil {
		t.Error("empty bounds should fail")
	}
	if n := mustNetwork(t, nil, 5, geom.Square(10)); n.Components() != 0 {
		t.Errorf("empty network has %d components, want 0", n.Components())
	}
}

func TestLineTopology(t *testing.T) {
	n := mustNetwork(t, line(5, 10), 15, geom.Square(100))
	if n.Components() != 1 {
		t.Errorf("components = %d, want 1", n.Components())
	}
	// Each node reaches only the nodes at distance 10 (range 15), so the
	// far end is 4 hops from node 0.
	stats, err := n.Delivery(0, time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reachable != 4 || stats.MaxHops != 4 {
		t.Errorf("stats = %+v, want 4 reachable, max 4 hops", stats)
	}
	d, err := n.Send(4, 0, lossless, field.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Hops != 4 || d.Rerouted {
		t.Errorf("send 4 -> 0 = %+v, want 4 greedy hops", d)
	}
	if d, err := n.Send(2, 2, lossless, field.NewRand(1)); err != nil || d.Hops != 0 {
		t.Errorf("self send = %+v, %v", d, err)
	}
}

func TestDisconnected(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 100, Y: 0}}
	n := mustNetwork(t, pts, 10, geom.Square(200))
	if n.Components() != 2 {
		t.Errorf("components = %d, want 2", n.Components())
	}
	stats, err := n.Delivery(0, time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 2 || stats.Reachable != 1 {
		t.Errorf("stats = %+v, want 1 of 2 reachable", stats)
	}
	d, err := n.Send(2, 0, lossless, field.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != Lost {
		t.Errorf("send across the partition = %+v, want lost", d)
	}
}

func TestGreedyRouteStraight(t *testing.T) {
	n := mustNetwork(t, line(6, 10), 15, geom.Square(100))
	d, err := n.Send(0, 5, lossless, field.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != Delivered || d.Hops != 5 || d.Rerouted {
		t.Errorf("send 0 -> 5 = %+v, want 5 greedy hops", d)
	}
	stats, err := n.Delivery(5, time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GreedyOK != 5 {
		t.Errorf("greedy ok = %d, want 5", stats.GreedyOK)
	}
}

// voidDeployment is a classic void: the source (node 0) has no neighbour
// closer to the destination (node 4), so greedy forwarding cannot leave it,
// but a detour goes up and around.
func voidDeployment() ([]geom.Point, float64, geom.Rect) {
	return []geom.Point{
		{X: 0, Y: 0},   // 0 src
		{X: 0, Y: 10},  // 1 detour up
		{X: 10, Y: 14}, // 2 detour across
		{X: 20, Y: 10}, // 3 detour down
		{X: 20, Y: 0},  // 4 dst
	}, 11, geom.Rect{MinX: -5, MinY: -5, MaxX: 30, MaxY: 30}
}

func TestGreedyRouteStuckInVoid(t *testing.T) {
	pts, r, bounds := voidDeployment()
	n := mustNetwork(t, pts, r, bounds)
	// Node 0's only neighbour (1) is farther from the destination than 0
	// itself: dist(1, dst) = sqrt(400+100) = 22.4 > 20. Nodes 1-3 walk the
	// detour greedily; BFS finds node 0's 4-hop detour.
	stats, err := n.Delivery(4, time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want := DeliveryStats{Nodes: 4, Reachable: 4, GreedyOK: 3, MaxHops: 4, MeanHops: 2.5, WithinBudget: 4}
	if stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}
}

func TestGreedyRouteIDValidation(t *testing.T) {
	n := mustNetwork(t, line(3, 10), 15, geom.Square(100))
	if _, err := n.Send(0, 7, lossless, field.NewRand(1)); err == nil {
		t.Error("out-of-range base should fail")
	}
	var r Routing
	if err := r.Rebuild(line(3, 10), 15, geom.Square(100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Send(-1, lossless, field.NewRand(1)); err == nil {
		t.Error("negative source should fail")
	}
	if _, err := r.Send(3, lossless, field.NewRand(1)); err == nil {
		t.Error("out-of-range source should fail")
	}
}

func TestDeliveryLine(t *testing.T) {
	n := mustNetwork(t, line(7, 10), 15, geom.Square(100))
	stats, err := n.Delivery(0, time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 6 || stats.Reachable != 6 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.MaxHops != 6 {
		t.Errorf("max hops = %d, want 6", stats.MaxHops)
	}
	if stats.MeanHops != 3.5 {
		t.Errorf("mean hops = %v, want 3.5", stats.MeanHops)
	}
	// Budget of 4 hops: nodes 1..4 make it, 5 and 6 do not.
	if stats.WithinBudget != 4 {
		t.Errorf("within budget = %d, want 4", stats.WithinBudget)
	}
	if stats.GreedyOK != 6 {
		t.Errorf("greedy ok = %d, want 6", stats.GreedyOK)
	}
}

func TestDeliveryValidation(t *testing.T) {
	n := mustNetwork(t, line(3, 10), 15, geom.Square(100))
	if _, err := n.Delivery(9, time.Second, time.Minute); err == nil {
		t.Error("bad base id should fail")
	}
	if _, err := n.Delivery(0, 0, time.Minute); err == nil {
		t.Error("zero per-hop should fail")
	}
	if _, err := n.Delivery(0, time.Second, 0); err == nil {
		t.Error("zero budget should fail")
	}
}

// TestPaperCommAssumption verifies the Section-4 claim on the ONR scenario:
// with a 6 km communication range and enough nodes, reports cross the 32 km
// field within a 1-minute sensing period at ~10 s per hop.
func TestPaperCommAssumption(t *testing.T) {
	bounds := geom.Square(32000)
	rng := field.NewRand(77)
	pts, err := field.Uniform(240, bounds, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Base station at the field center: use the node nearest the center.
	center := geom.Point{X: 16000, Y: 16000}
	base := 0
	for i, p := range pts {
		if p.Dist(center) < pts[base].Dist(center) {
			base = i
		}
	}
	n := mustNetwork(t, pts, 6000, bounds)
	stats, err := n.Delivery(base, 10*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reachable < stats.Nodes*9/10 {
		t.Errorf("only %d/%d nodes reachable at N=240", stats.Reachable, stats.Nodes)
	}
	if stats.MaxHops > 8 {
		t.Errorf("max hops = %d, paper expects ~6", stats.MaxHops)
	}
	if stats.WithinBudget < stats.Reachable*9/10 {
		t.Errorf("only %d/%d reachable nodes within the sensing period", stats.WithinBudget, stats.Reachable)
	}
}

func TestHopsFrom(t *testing.T) {
	var r Routing
	if err := r.Rebuild(line(5, 10), 15, geom.Square(100), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if h, err := r.Hops(i); err != nil || h != i {
			t.Errorf("Hops(%d) = %d, %v, want %d", i, h, err, i)
		}
	}
	if err := r.Rebuild(line(5, 10), 15, geom.Square(100), -1); err == nil {
		t.Error("bad base should fail")
	}
	// Disconnected nodes report -1.
	if err := r.Rebuild([]geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, 10, geom.Square(200), 0); err != nil {
		t.Fatal(err)
	}
	if h, err := r.Hops(1); err != nil || h != -1 {
		t.Errorf("disconnected hop count = %d, %v, want -1", h, err)
	}
}

// TestHopsFromMatchesShortestHops checks the table's BFS hop counts node
// for node against the brute-force reference on a dense ONR deployment.
func TestHopsFromMatchesShortestHops(t *testing.T) {
	bounds := geom.Square(32000)
	pts, err := field.Uniform(150, bounds, field.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	var r Routing
	if err := r.Rebuild(pts, 6000, bounds, 0); err != nil {
		t.Fatal(err)
	}
	ref := newUnitDisk(pts, 6000, nil, 0)
	for i := range pts {
		h, err := r.Hops(i)
		if err != nil {
			t.Fatal(err)
		}
		if h != ref.hops[i] {
			t.Errorf("node %d: table %d hops, reference %d", i, h, ref.hops[i])
		}
	}
}

// TestGreedyOKMatchesGreedyRoute asserts Delivery's greedy verdicts agree
// with the reference's greedy walks on random sparse deployments,
// including disconnected and void-heavy ones.
func TestGreedyOKMatchesGreedyRoute(t *testing.T) {
	var stuck int
	for seed := int64(0); seed < 4; seed++ {
		rng := field.NewRand(seed)
		bounds := geom.Square(32000)
		pts := make([]geom.Point, 120)
		for i := range pts {
			pts[i] = geom.Point{
				X: bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
				Y: bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
			}
		}
		net := mustNetwork(t, pts, 5000, bounds)
		stats, err := net.Delivery(0, 10*time.Second, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		want := newUnitDisk(pts, 5000, nil, 0).delivery(10*time.Second, time.Minute)
		if stats.GreedyOK != want.GreedyOK {
			t.Fatalf("seed %d: greedy ok %d, reference %d", seed, stats.GreedyOK, want.GreedyOK)
		}
		stuck += stats.Reachable - stats.GreedyOK
	}
	if stuck == 0 {
		t.Fatal("weak coverage: no reachable node was greedy-stuck")
	}
}
