package netsim

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

// coverage counts the alive sources whose lossless send was rerouted or
// lost, so a cross-check can insist that voids and partitions occurred.
type coverage struct{ rerouted, lost int }

// checkSends sends one lossless report from every node, dead ones too, and
// compares outcome, hop count and Rerouted with the reference's route.
func checkSends(t *testing.T, what string, ref *unitDisk, send func(src int) (Delivery, error), cov *coverage) {
	t.Helper()
	for src := range ref.pts {
		d, err := send(src)
		if err != nil {
			t.Fatal(err)
		}
		out, hops, rerouted := ref.route(src)
		if d.Outcome != out || d.Hops != hops || d.Rerouted != rerouted {
			t.Fatalf("%s src %d: got %v hops=%d rerouted=%v, want %v hops=%d rerouted=%v",
				what, src, d.Outcome, d.Hops, d.Rerouted, out, hops, rerouted)
		}
		if !ref.live(src) {
			continue
		}
		if d.Rerouted {
			cov.rerouted++
		}
		if d.Outcome == Lost {
			cov.lost++
		}
	}
}

// randomMask keeps each node alive with probability survive, and the base
// always.
func randomMask(n, base int, survive float64, rng *rand.Rand) []bool {
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = rng.Float64() < survive
	}
	keep[base] = true
	return keep
}

// TestRoutingMatchesRouteWalks cross-checks a Network against the
// brute-force reference — every node's Send toward two bases, Delivery and
// Components — and then a table over a random alive mask of the same
// deployment, on random deployments sparse enough to contain greedy voids
// and partitions, and on the tie deployment. The test insists that voids
// and partitions occur.
func TestRoutingMatchesRouteWalks(t *testing.T) {
	type deployment struct {
		pts    []geom.Point
		r      float64
		bounds geom.Rect
		bases  []int
	}
	pts, r, bounds := tieDeployment()
	deps := []deployment{{pts, r, bounds, []int{0}}}
	for seed := int64(1); seed <= 8; seed++ {
		pts, err := field.Uniform(60, geom.Square(1000), field.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		deps = append(deps, deployment{pts, 170, geom.Square(1000), []int{0, 30}})
	}
	var cov coverage
	var partitioned int
	for k, dep := range deps {
		n := mustNetwork(t, dep.pts, dep.r, dep.bounds)
		for _, base := range dep.bases {
			ref := newUnitDisk(dep.pts, dep.r, nil, base)
			checkSends(t, "Send", ref, func(src int) (Delivery, error) {
				return n.Send(src, base, lossless, field.NewRand(int64(k)))
			}, &cov)
			stats, err := n.Delivery(base, 10*time.Second, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.delivery(10*time.Second, time.Minute); stats != want {
				t.Fatalf("deployment %d base %d: Delivery = %+v, want %+v", k, base, stats, want)
			}
			if got, want := n.Components(), ref.components(); got != want {
				t.Fatalf("deployment %d: Components = %d, want %d", k, got, want)
			}
		}
		if n.Components() > 1 {
			partitioned++
		}
		// The same walks over a random three quarters of the nodes: dead
		// nodes neither relay nor count as neighbours.
		base := dep.bases[0]
		var rt Routing
		alive := randomMask(len(dep.pts), base, 0.75, field.NewRand(int64(k)))
		if err := rt.Rebuild(dep.pts, dep.r, dep.bounds, base); err != nil {
			t.Fatal(err)
		}
		if err := rt.Reset(alive); err != nil {
			t.Fatal(err)
		}
		checkSends(t, "masked Send", newUnitDisk(dep.pts, dep.r, alive, base), func(src int) (Delivery, error) {
			return rt.Send(src, lossless, field.NewRand(int64(k)))
		}, &cov)
	}
	t.Logf("%d rerouted, %d lost sends, %d partitioned deployments", cov.rerouted, cov.lost, partitioned)
	if cov.rerouted == 0 || cov.lost == 0 || partitioned == 0 {
		t.Fatalf("weak coverage: %d rerouted, %d lost sends, %d partitioned deployments", cov.rerouted, cov.lost, partitioned)
	}
}

// TestRoutingResetMatchesSubset checks that one table, re-aimed in place
// with Rebuild across many random sparse deployments and Reset with alive
// masks, routes node for node as the brute-force reference does over the
// alive nodes alone: outcome, hop count, Rerouted, and BFS Hops. The
// deployments are sparse enough that greedy voids and partitions occur,
// and the test insists that they do.
func TestRoutingResetMatchesSubset(t *testing.T) {
	var r Routing
	var cov coverage
	var masks int
	check := func(what string, pts []geom.Point, commRange float64, alive []bool, base int) {
		t.Helper()
		ref := newUnitDisk(pts, commRange, alive, base)
		checkSends(t, what, ref, func(src int) (Delivery, error) {
			return r.Send(src, lossless, field.NewRand(1))
		}, &cov)
		for src := range pts {
			h, err := r.Hops(src)
			if err != nil {
				t.Fatal(err)
			}
			if h != ref.hops[src] {
				t.Fatalf("%s: Hops(%d) = %d, want %d", what, src, h, ref.hops[src])
			}
		}
	}

	// The tie deployment all alive, without a leading tie, and cut.
	pts, commRange, bounds := tieDeployment()
	if err := r.Rebuild(pts, commRange, bounds, 0); err != nil {
		t.Fatal(err)
	}
	check("tie deployment", pts, commRange, nil, 0)
	for _, dead := range []int{4, 2} {
		alive := []bool{true, true, true, true, true, true, true}
		alive[dead] = false
		if err := r.Reset(alive); err != nil {
			t.Fatal(err)
		}
		check("tie deployment", pts, commRange, alive, 0)
	}

	bounds = geom.Square(1000)
	for deploy := int64(0); deploy < 60; deploy++ {
		rng := field.NewRand(200 + deploy)
		pts, err := field.Uniform(40+rng.Intn(60), bounds, rng)
		if err != nil {
			t.Fatal(err)
		}
		commRange := 150 + 60*rng.Float64()
		base := rng.Intn(len(pts))
		if err := r.Rebuild(pts, commRange, bounds, base); err != nil {
			t.Fatal(err)
		}
		// Epoch 0 is Rebuild's all-alive table; then two Reset epochs.
		var alive []bool
		for epoch := 0; epoch < 3; epoch++ {
			if epoch > 0 {
				alive = randomMask(len(pts), base, 0.75, rng)
				if err := r.Reset(alive); err != nil {
					t.Fatal(err)
				}
				masks++
			}
			check("random deployment", pts, commRange, alive, base)
		}
	}
	t.Logf("%d masks, %d rerouted, %d lost sends", masks, cov.rerouted, cov.lost)
	if masks < 100 || cov.rerouted == 0 || cov.lost == 0 {
		t.Fatalf("weak coverage: %d masks, %d rerouted, %d lost sends", masks, cov.rerouted, cov.lost)
	}
}

func TestRoutingRejectsDeadBase(t *testing.T) {
	var r Routing
	if err := r.Reset(nil); err == nil {
		t.Fatal("Reset before Rebuild should fail")
	}
	if err := r.Rebuild(line(4, 1), 1.5, geom.Square(10), 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Reset([]bool{true, false, true, true}); err == nil {
		t.Fatal("Reset with dead base should fail")
	}
	if err := r.Reset([]bool{true}); err == nil {
		t.Fatal("Reset with short mask should fail")
	}
}

func TestRoutingHops(t *testing.T) {
	var r Routing
	if err := r.Rebuild(line(5, 1), 1.5, geom.Square(10), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h, err := r.Hops(i)
		if err != nil {
			t.Fatal(err)
		}
		if h != i {
			t.Errorf("Hops(%d) = %d, want %d", i, h, i)
		}
	}
	// Killing node 2 partitions the line: 3 and 4 become unreachable.
	if err := r.Reset([]bool{true, true, false, true, true}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, -1, -1, -1} {
		h, err := r.Hops(i)
		if err != nil {
			t.Fatal(err)
		}
		if h != want {
			t.Errorf("after partition Hops(%d) = %d, want %d", i, h, want)
		}
	}
	if _, err := r.Hops(99); err == nil {
		t.Fatal("Hops out of range should fail")
	}
}

// TestDeliveryDegradesGracefullyUnderFailures: the ONR network at N=240
// keeps most alive nodes reachable at 90% survival but fragments heavily
// at 30%.
func TestDeliveryDegradesGracefullyUnderFailures(t *testing.T) {
	bounds := geom.Square(32000)
	rng := field.NewRand(13)
	pts, err := field.Uniform(240, bounds, rng)
	if err != nil {
		t.Fatal(err)
	}
	var r Routing
	if err := r.Rebuild(pts, 6000, bounds, 0); err != nil {
		t.Fatal(err)
	}
	run := func(survive float64) float64 {
		alive := randomMask(len(pts), 0, survive, rng)
		if err := r.Reset(alive); err != nil {
			t.Fatal(err)
		}
		var nodes, reachable int
		for i := 1; i < len(pts); i++ {
			if !alive[i] {
				continue
			}
			nodes++
			if h, err := r.Hops(i); err != nil {
				t.Fatal(err)
			} else if h >= 0 {
				reachable++
			}
		}
		if nodes == 0 {
			return 0
		}
		return float64(reachable) / float64(nodes)
	}
	healthy := run(0.9)
	crippled := run(0.3)
	if healthy < 0.8 {
		t.Errorf("90%% survival should keep most nodes reachable: %v", healthy)
	}
	if crippled >= healthy {
		t.Errorf("30%% survival (%v) should be worse than 90%% (%v)", crippled, healthy)
	}
}

// TestRoutingConcurrentSends: the table a Network shares across Sends is
// filled lazily under its lock, so concurrent first walks through the same
// nodes must still produce the routes the reference does.
func TestRoutingConcurrentSends(t *testing.T) {
	bounds := geom.Square(1000)
	pts, err := field.Uniform(80, bounds, field.NewRand(21))
	if err != nil {
		t.Fatal(err)
	}
	n := mustNetwork(t, pts, 170, bounds)
	ref := newUnitDisk(pts, 170, nil, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range pts {
				src := (k*(2*g+1) + g) % len(pts) // a different visiting order per goroutine
				d, err := n.Send(src, 0, lossless, field.NewRand(int64(g)))
				if err != nil {
					t.Error(err)
					return
				}
				if out, hops, _ := ref.route(src); d.Outcome != out || d.Hops != hops {
					t.Errorf("goroutine %d src %d: %v hops %d, want %v hops %d", g, src, d.Outcome, d.Hops, out, hops)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNetworkConcurrent calls Components, Delivery and Send on one
// Network from several goroutines at once. The component count and the
// per-base tables are filled lazily from the network's one index, so
// concurrent first uses must neither race nor change an answer.
func TestNetworkConcurrent(t *testing.T) {
	bounds := geom.Square(1000)
	pts, err := field.Uniform(80, bounds, field.NewRand(22))
	if err != nil {
		t.Fatal(err)
	}
	n := mustNetwork(t, pts, 170, bounds)
	bases := []int{0, 1, 2}
	refs := make([]*unitDisk, len(bases))
	for i, b := range bases {
		refs[i] = newUnitDisk(pts, 170, nil, b)
	}
	wantComps := refs[0].components()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(pts); k++ {
				i := (k/3 + g) % len(bases)
				ref := refs[i]
				switch (k + g) % 3 {
				case 0:
					if got := n.Components(); got != wantComps {
						t.Errorf("goroutine %d: Components = %d, want %d", g, got, wantComps)
						return
					}
				case 1:
					stats, err := n.Delivery(bases[i], 10*time.Second, time.Minute)
					if err != nil {
						t.Error(err)
						return
					}
					if want := ref.delivery(10*time.Second, time.Minute); stats != want {
						t.Errorf("goroutine %d base %d: Delivery = %+v, want %+v", g, bases[i], stats, want)
						return
					}
				default:
					src := (k*(2*g+1) + g) % len(pts)
					d, err := n.Send(src, bases[i], lossless, field.NewRand(int64(g)))
					if err != nil {
						t.Error(err)
						return
					}
					if out, hops, rerouted := ref.route(src); d.Outcome != out || d.Hops != hops || d.Rerouted != rerouted {
						t.Errorf("goroutine %d src %d base %d: %+v, want %v hops %d rerouted %v", g, src, bases[i], d, out, hops, rerouted)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
