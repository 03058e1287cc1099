package netsim

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

// routeHops reproduces what the pre-cache Send computed per report: the
// greedy route length when greedy succeeds, the BFS repair length when it
// is stuck, and (-1, rerouted) when the base is unreachable.
func routeHops(t *testing.T, n *Network, src, base int) (hops int, rerouted bool) {
	t.Helper()
	path, rerouted, err := n.Route(src, base)
	if err != nil {
		if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("Route(%d, %d): %v", src, base, err)
		}
		return -1, rerouted
	}
	return len(path) - 1, rerouted
}

// TestRoutingMatchesRouteWalks cross-checks the cached table against the
// walk-per-report routing it replaced, on random deployments sparse enough
// to contain greedy voids and partitions.
func TestRoutingMatchesRouteWalks(t *testing.T) {
	bounds := geom.Square(1000)
	for seed := int64(1); seed <= 8; seed++ {
		rng := field.NewRand(seed)
		pts, err := field.Uniform(60, bounds, rng)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(pts, 170, bounds)
		if err != nil {
			t.Fatal(err)
		}
		r, err := n.NewRouting(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := LossModel{PerHopDelivery: 1, PerHop: time.Second, Budget: time.Hour}
		for src := 0; src < n.Len(); src++ {
			wantHops, wantRerouted := routeHops(t, n, src, 0)
			d, err := r.Send(src, m, field.NewRand(seed))
			if err != nil {
				t.Fatal(err)
			}
			if wantHops < 0 {
				if d.Outcome != Lost || d.Rerouted != wantRerouted {
					t.Errorf("seed %d src %d: got %+v, want Lost rerouted=%v", seed, src, d, wantRerouted)
				}
				continue
			}
			if d.Hops != wantHops || d.Rerouted != wantRerouted {
				t.Errorf("seed %d src %d: got hops=%d rerouted=%v, want hops=%d rerouted=%v",
					seed, src, d.Hops, d.Rerouted, wantHops, wantRerouted)
			}
		}
	}
}

// TestRoutingResetMatchesSubset checks that one table, re-aimed in place
// with Rebuild across many random sparse deployments and Reset with alive
// masks, reproduces node for node the Subset-and-rebuild path it replaced
// in the fault injector: outcome, hop count, Rerouted, and BFS Hops. The
// deployments are sparse enough that greedy voids and partitions occur,
// and the test insists that they do.
func TestRoutingResetMatchesSubset(t *testing.T) {
	bounds := geom.Square(1000)
	m := LossModel{PerHopDelivery: 1, PerHop: time.Second, Budget: time.Hour}
	var r Routing
	var rerouted, lost, masks int
	for deploy := int64(0); deploy < 60; deploy++ {
		rng := field.NewRand(200 + deploy)
		pts, err := field.Uniform(40+rng.Intn(60), bounds, rng)
		if err != nil {
			t.Fatal(err)
		}
		commRange := 150 + 60*rng.Float64()
		base := rng.Intn(len(pts))
		full, err := New(pts, commRange, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Rebuild(pts, commRange, bounds, base); err != nil {
			t.Fatal(err)
		}
		// Mask 0 is Rebuild's all-alive table; then two Reset epochs.
		for epoch := 0; epoch < 3; epoch++ {
			keep := make([]bool, len(pts))
			for i := range keep {
				keep[i] = true
			}
			if epoch > 0 {
				if keep, err = RandomFailures(len(pts), 0.75, rng, base); err != nil {
					t.Fatal(err)
				}
				if err := r.Reset(keep); err != nil {
					t.Fatal(err)
				}
				masks++
			}
			sub, mapping, err := full.Subset(keep, bounds)
			if err != nil {
				t.Fatal(err)
			}
			subBase := slices.Index(mapping, base)
			subHops, err := sub.HopsFrom(subBase)
			if err != nil {
				t.Fatal(err)
			}
			for subSrc, src := range mapping {
				wantHops, wantRerouted := routeHops(t, sub, subSrc, subBase)
				wantOutcome := Delivered
				if wantHops < 0 {
					wantOutcome, wantHops = Lost, 0
				}
				d, err := r.Send(src, m, field.NewRand(1))
				if err != nil {
					t.Fatal(err)
				}
				if d.Outcome != wantOutcome || d.Hops != wantHops || d.Rerouted != wantRerouted {
					t.Fatalf("deployment %d epoch %d src %d: got %v hops=%d rerouted=%v, want %v hops=%d rerouted=%v",
						deploy, epoch, src, d.Outcome, d.Hops, d.Rerouted, wantOutcome, wantHops, wantRerouted)
				}
				h, err := r.Hops(src)
				if err != nil {
					t.Fatal(err)
				}
				if h != subHops[subSrc] {
					t.Fatalf("deployment %d epoch %d: Hops(%d) = %d, want %d", deploy, epoch, src, h, subHops[subSrc])
				}
				if d.Rerouted {
					rerouted++
				}
				if d.Outcome == Lost {
					lost++
				}
			}
		}
	}
	t.Logf("%d masks, %d rerouted, %d lost sends", masks, rerouted, lost)
	if masks < 100 || rerouted == 0 || lost == 0 {
		t.Fatalf("weak coverage: %d masks, %d rerouted, %d lost sends", masks, rerouted, lost)
	}
}

func TestRoutingRejectsDeadBase(t *testing.T) {
	n := mustNetwork(t, line(4, 1), 1.5, geom.Square(10))
	alive := []bool{true, false, true, true}
	if _, err := n.NewRouting(1, alive); err == nil {
		t.Fatal("NewRouting with dead base should fail")
	}
	r, err := n.NewRouting(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Reset([]bool{false, true, true, true}); err == nil {
		t.Fatal("Reset with dead base should fail")
	}
	if err := r.Reset([]bool{true}); err == nil {
		t.Fatal("Reset with short mask should fail")
	}
}

func TestRoutingHops(t *testing.T) {
	n := mustNetwork(t, line(5, 1), 1.5, geom.Square(10))
	r, err := n.NewRouting(0, nil)
	if err != nil {
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

// TestRoutingConcurrentSends: the table a Network shares across Sends is
// filled lazily under its lock, so concurrent first walks through the same
// nodes must still produce the routes a sequential walk does.
func TestRoutingConcurrentSends(t *testing.T) {
	bounds := geom.Square(1000)
	pts, err := field.Uniform(80, bounds, field.NewRand(21))
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(pts, 170, bounds)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, n.Len())
	for src := range want {
		want[src], _ = routeHops(t, n, src, 0)
	}
	m := LossModel{PerHopDelivery: 1, PerHop: time.Second, Budget: time.Hour}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range want {
				src := (k*(2*g+1) + g) % len(want) // a different visiting order per goroutine
				d, err := n.Send(src, 0, m, field.NewRand(int64(g)))
				if err != nil {
					t.Error(err)
					return
				}
				got := d.Hops
				if d.Outcome == Lost {
					got = -1
				}
				if got != want[src] {
					t.Errorf("goroutine %d src %d: hops %d, want %d", g, src, got, want[src])
				}
			}
		}(g)
	}
	wg.Wait()
}
