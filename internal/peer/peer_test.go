package peer

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

func testPeers(n int) []string {
	var urls []string
	for i := 0; i < n; i++ {
		urls = append(urls, fmt.Sprintf("http://10.0.0.%d:8080", i+1))
	}
	return urls
}

func TestRingDeterministicAcrossReplicas(t *testing.T) {
	peers := testPeers(3)
	// Every replica builds its ring from the same -peers flag; the owner
	// function must agree on every key regardless of which replica asks.
	r1, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("cache-key-%d", i)
		if a, b := r1.Owner(key, nil), r2.Owner(key, nil); a != b {
			t.Fatalf("key %q: ring 1 says owner %d, ring 2 says %d", key, a, b)
		}
	}
}

func TestRingBalance(t *testing.T) {
	peers := testPeers(3)
	r, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(peers))
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i), nil)]++
	}
	// With 64 vnodes per member the split should be within a loose band
	// of uniform; catastrophic imbalance means the ring is broken.
	for i, c := range counts {
		frac := float64(c) / keys
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("member %d owns %.1f%% of keys, want roughly a third: %v", i, frac*100, counts)
		}
	}
}

func TestRingRehashOnDeath(t *testing.T) {
	peers := testPeers(3)
	r, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	dead := 2
	alive := func(m int) bool { return m != dead }
	moved, stayed := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := r.Owner(key, nil)
		after := r.Owner(key, alive)
		if after == dead {
			t.Fatalf("key %q still routed to the dead member", key)
		}
		if before == dead {
			moved++
			continue
		}
		if before != after {
			t.Errorf("key %q owned by live member %d moved to %d when %d died (stability broken)", key, before, after, dead)
		}
		stayed++
	}
	// Consistent hashing's contract: only the dead member's keys move.
	if moved == 0 || stayed == 0 {
		t.Fatalf("degenerate distribution: moved=%d stayed=%d", moved, stayed)
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty member list should be rejected")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Error("duplicate members should be rejected")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Error("empty member URL should be rejected")
	}
}

func TestRingAllDeadFallsBack(t *testing.T) {
	r, err := NewRing(testPeers(3))
	if err != nil {
		t.Fatal(err)
	}
	// With every member dead, Owner still names one (the unfiltered
	// owner): the caller computes locally rather than failing.
	if got := r.Owner("key", func(int) bool { return false }); got < 0 || got > 2 {
		t.Errorf("all-dead owner = %d, want a valid member index", got)
	}
	if got, want := r.Owner("key", func(int) bool { return false }), r.Owner("key", nil); got != want {
		t.Errorf("all-dead owner %d differs from unfiltered owner %d", got, want)
	}
}

func TestHealthProbeCycle(t *testing.T) {
	h := NewHealth(2, 1, 50*time.Millisecond)
	now := time.Now()
	if !h.Alive(0, now) {
		t.Fatal("fresh member should be alive")
	}
	// One failure at threshold 1 opens the circuit.
	if opened := h.OnFailure(0, now); !opened {
		t.Fatal("failure at threshold should open the circuit")
	}
	if h.Alive(0, now) {
		t.Fatal("open member admitted before cooldown")
	}
	// After cooldown exactly one caller gets the probe slot.
	later := now.Add(60 * time.Millisecond)
	if !h.Alive(0, later) {
		t.Fatal("cooled-down member should admit one probe")
	}
	if h.Alive(0, later) {
		t.Fatal("second caller admitted while probe in flight")
	}
	// Failed probe re-opens; successful probe closes.
	h.OnFailure(0, later)
	if h.Alive(0, later) {
		t.Fatal("failed probe should re-open the circuit")
	}
	again := later.Add(60 * time.Millisecond)
	if !h.Alive(0, again) {
		t.Fatal("re-cooled member should admit another probe")
	}
	h.OnSuccess(0)
	if !h.Alive(0, again) || !h.Alive(0, again) {
		t.Fatal("successful probe should close the circuit for everyone")
	}
}

func TestHealthThreshold(t *testing.T) {
	h := NewHealth(1, 3, time.Second)
	now := time.Now()
	if h.OnFailure(0, now) || h.OnFailure(0, now) {
		t.Fatal("circuit opened below the failure threshold")
	}
	if !h.Alive(0, now) {
		t.Fatal("member below threshold should stay alive")
	}
	if !h.OnFailure(0, now) {
		t.Fatal("third consecutive failure should open the circuit")
	}
	// Success resets the consecutive count.
	h2 := NewHealth(1, 3, time.Second)
	h2.OnFailure(0, now)
	h2.OnFailure(0, now)
	h2.OnSuccess(0)
	if h2.OnFailure(0, now) || h2.OnFailure(0, now) {
		t.Fatal("success did not reset the consecutive-failure count")
	}
}

// TestHealthStragglerFailure: a failure that lands while the circuit is
// already open — a forward dispatched before it opened — is not a second
// opening: it neither reports opened (the caller would count a second
// death) nor re-arms the cooldown.
func TestHealthStragglerFailure(t *testing.T) {
	h := NewHealth(1, 1, 50*time.Millisecond)
	now := time.Now()
	if !h.OnFailure(0, now) {
		t.Fatal("failure at threshold should open the circuit")
	}
	if h.OnFailure(0, now.Add(30*time.Millisecond)) {
		t.Fatal("straggler failure on an open circuit reported as opening it")
	}
	if !h.Alive(0, now.Add(50*time.Millisecond)) {
		t.Fatal("straggler failure re-armed the cooldown")
	}
}

func TestPickerRoute(t *testing.T) {
	peers := testPeers(3)
	var pickers []*Picker
	for _, self := range peers {
		p, err := NewPicker(peers, self, 0)
		if err != nil {
			t.Fatal(err)
		}
		pickers = append(pickers, p)
	}
	ownedBySelf := 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		var owners []int
		for _, p := range pickers {
			m, url, self := p.Route(key)
			if url != peers[m] {
				t.Fatalf("member %d URL mismatch: %q", m, url)
			}
			if self != (m == p.Self()) {
				t.Fatalf("self flag inconsistent for key %q", key)
			}
			owners = append(owners, m)
		}
		sort.Ints(owners)
		if owners[0] != owners[2] {
			t.Fatalf("key %q: replicas disagree on owner: %v", key, owners)
		}
		if owners[0] == 0 {
			ownedBySelf++
		}
	}
	if ownedBySelf == 0 || ownedBySelf == 300 {
		t.Errorf("degenerate ownership split: %d/300 owned by member 0", ownedBySelf)
	}
}

func TestPickerSelfAlwaysAlive(t *testing.T) {
	peers := testPeers(2)
	p, err := NewPicker(peers, peers[0], time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the other member: every key must now route to self.
	p.OnFailure(1)
	for i := 0; i < 100; i++ {
		if m, _, self := p.Route(fmt.Sprintf("key-%d", i)); !self || m != 0 {
			t.Fatalf("key routed to dead member %d", m)
		}
	}
}

func TestPickerValidation(t *testing.T) {
	peers := testPeers(2)
	if _, err := NewPicker(peers, "http://not-in-fleet:1", 0); err == nil {
		t.Error("self outside the fleet view should be rejected")
	}
	if _, err := NewPicker(nil, "x", 0); err == nil {
		t.Error("empty fleet should be rejected")
	}
}
