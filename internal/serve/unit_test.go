package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/scenario"
)

func TestCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.add("a", []byte("A"))
	c.add("b", []byte("B"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should be cached")
	}
	// a was just touched, so adding c evicts b (the LRU entry).
	c.add("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c should be cached")
	}
	if got := c.len(); got != 2 {
		t.Errorf("len = %d, want 2", got)
	}
}

func TestCacheLookupAccounting(t *testing.T) {
	// Lookups are classified at the call site (metrics.go): each helper
	// bumps lookups plus exactly one of hits/misses/forwards, so the
	// hits + misses + forwards == lookups identity holds by construction.
	lookups0 := cacheLookups.Value()
	hits0, misses0, fwd0 := cacheHits.Value(), cacheMisses.Value(), peerForwards.Value()
	lookupMiss()
	lookupHit()
	lookupForward()
	lookups := cacheLookups.Value() - lookups0
	hits := cacheHits.Value() - hits0
	misses := cacheMisses.Value() - misses0
	forwards := peerForwards.Value() - fwd0
	if lookups != 3 || hits != 1 || misses != 1 || forwards != 1 {
		t.Errorf("lookups/hits/misses/forwards = %d/%d/%d/%d, want 3/1/1/1", lookups, hits, misses, forwards)
	}
	if hits+misses+forwards != lookups {
		t.Errorf("hits+misses+forwards = %d, want == lookups %d", hits+misses+forwards, lookups)
	}
}

func TestCacheAliasSharesSlot(t *testing.T) {
	// The raw-body digest alias must ride its entry's LRU slot: attaching
	// it does not consume capacity, and eviction removes both indexes —
	// the PR-7 fast path leaked a second, independently-charged entry.
	c := newResultCache(2)
	c.add("a", []byte("A"))
	c.attachAlias("a", "raw-a")
	if got := c.len(); got != 1 {
		t.Fatalf("len after alias = %d, want 1 (alias must not hold a slot)", got)
	}
	if body, ok := c.get("raw-a"); !ok || string(body) != "A" {
		t.Fatalf("alias lookup = %q/%v, want A/true", body, ok)
	}
	// Fill the cache so "a" (the LRU entry) is evicted; the alias must go
	// with it rather than dangling or pinning the slot.
	c.add("b", []byte("B"))
	c.get("b")
	c.add("c", []byte("C"))
	c.get("c")
	c.add("d", []byte("D"))
	if _, ok := c.get("a"); ok {
		t.Error("a should have been evicted")
	}
	if _, ok := c.get("raw-a"); ok {
		t.Error("alias should have been evicted with its entry")
	}
	// Attaching to a missing key or with an empty alias is a no-op.
	c.attachAlias("nope", "x")
	c.attachAlias("c", "")
	if _, ok := c.get("x"); ok {
		t.Error("alias on a missing key should not exist")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.add("a", []byte("A"))
	if _, ok := c.get("a"); ok {
		t.Error("disabled cache should never hit")
	}
}

func TestFlightDedup(t *testing.T) {
	g := newFlightGroup()
	var calls atomic.Int64
	gate := make(chan struct{})
	const followers = 8
	var wg sync.WaitGroup
	leaderIn := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, err, shared := g.do(context.Background(), "k", func() ([]byte, error) {
			calls.Add(1)
			close(leaderIn)
			<-gate
			return []byte("result"), nil
		})
		if err != nil || string(body) != "result" || shared {
			t.Errorf("leader: body=%q err=%v shared=%v", body, err, shared)
		}
	}()
	<-leaderIn // the flight is provably in progress
	sharedCount := atomic.Int64{}
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err, shared := g.do(context.Background(), "k", func() ([]byte, error) {
				calls.Add(1)
				return []byte("result"), nil
			})
			if err != nil || string(body) != "result" {
				t.Errorf("follower: body=%q err=%v", body, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Give the followers a moment to join the flight, then land it.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	// Every caller that joined while the leader ran shares its single
	// execution; stragglers that arrived after landing start a new one.
	if calls.Load() > 2 {
		t.Errorf("fn ran %d times, want at most 2 (one flight + stragglers)", calls.Load())
	}
	if sharedCount.Load() == 0 {
		t.Error("no follower shared the leader's flight")
	}
}

// TestFlightFollowerOutlivesCancelledLeader: a leader's cancellation is
// not its followers' result. A follower whose own context is live runs
// the key again; one whose context is done shares the leader's error.
func TestFlightFollowerOutlivesCancelledLeader(t *testing.T) {
	g := newFlightGroup()
	gate, leaderIn := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err, _ := g.do(context.Background(), "k", func() ([]byte, error) {
			close(leaderIn)
			<-gate
			return nil, fmt.Errorf("compute: %w", context.Canceled)
		})
		leader <- err
	}()
	<-leaderIn
	done, cancel := context.WithCancel(context.Background())
	cancel()
	type result struct {
		body   []byte
		err    error
		shared bool
	}
	live, dead := make(chan result, 1), make(chan result, 1)
	joined := dedupFollowers.Value()
	for _, f := range []struct {
		ctx context.Context
		out chan result
	}{{context.Background(), live}, {done, dead}} {
		go func() {
			body, err, shared := g.do(f.ctx, "k", func() ([]byte, error) { return []byte("result"), nil })
			f.out <- result{body, err, shared}
		}()
	}
	for dedupFollowers.Value() < joined+2 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Errorf("leader: err = %v, want context.Canceled", err)
	}
	if r := <-live; r.err != nil || string(r.body) != "result" {
		t.Errorf("live follower: body=%q err=%v, want its own computation", r.body, r.err)
	}
	if r := <-dead; !errors.Is(r.err, context.Canceled) || !r.shared {
		t.Errorf("cancelled follower: err=%v shared=%v, want the leader's error, shared", r.err, r.shared)
	}
}

func TestAdmissionQueueBound(t *testing.T) {
	a := newAdmission(1, 2)
	ctx := context.Background()
	release, err := a.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Two waiters fill the queue.
	type res struct {
		release func()
		err     error
	}
	waiters := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			r, err := a.acquire(ctx)
			waiters <- res{r, err}
		}()
	}
	// Wait until both are provably parked inside acquire.
	deadline := time.Now().Add(2 * time.Second)
	for a.queued.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never queued: queued = %d", a.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// The third concurrent claim overflows the bound: immediate rejection.
	if _, err := a.acquire(ctx); err != ErrOverloaded {
		t.Errorf("overflow acquire: err = %v, want ErrOverloaded", err)
	}
	// A queued waiter whose deadline expires leaves with the ctx error.
	release()
	r1 := <-waiters
	if r1.err != nil {
		t.Fatalf("first waiter: %v", r1.err)
	}
	expired, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, err := a.acquire(expired); err != context.DeadlineExceeded {
		// The pool is still full (r1 holds it), so this must time out.
		t.Errorf("deadline acquire: err = %v, want DeadlineExceeded", err)
	}
	r1.release()
	r2 := <-waiters
	if r2.err != nil {
		t.Fatalf("second waiter: %v", r2.err)
	}
	r2.release()
}

func TestAdmissionRelease(t *testing.T) {
	a := newAdmission(2, 4)
	ctx := context.Background()
	var releases []func()
	for i := 0; i < 2; i++ {
		r, err := a.acquire(ctx)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		releases = append(releases, r)
	}
	for _, r := range releases {
		r()
	}
	// The pool is free again: a fresh claim succeeds immediately.
	done := make(chan error, 1)
	go func() {
		r, err := a.acquire(ctx)
		if err == nil {
			r()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("acquire blocked after all slots were released")
	}
}

func TestApplyAxis(t *testing.T) {
	base, err := scenario.Scenario{}.Params()
	if err != nil {
		t.Fatal(err)
	}
	p, err := applyAxis(base, AxisN, 60)
	if err != nil || p.N != 60 {
		t.Errorf("AxisN: N = %d err = %v", p.N, err)
	}
	if _, err := applyAxis(base, AxisN, 60.5); err == nil {
		t.Error("fractional n should be rejected, not truncated")
	}
	if _, err := applyAxis(base, AxisK, 2.5); err == nil {
		t.Error("fractional k should be rejected")
	}
	p, err = applyAxis(base, AxisV, 5.5)
	if err != nil || p.V != 5.5 {
		t.Errorf("AxisV: V = %v err = %v", p.V, err)
	}
	if _, err := applyAxis(base, AxisPd, 1.5); err == nil {
		t.Error("pd out of range should be rejected")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	for name, got := range map[string]bool{
		"cache":        cfg.CacheEntries == 1024,
		"workers":      cfg.Workers >= 1,
		"queue":        cfg.QueueDepth == 4*cfg.Workers,
		"timeout":      cfg.RequestTimeout == 30*time.Second,
		"trials":       cfg.MaxTrials == 200000,
		"sweep points": cfg.MaxSweepPoints == 512,
		"sweepWorkers": cfg.Sweep.Workers == 0, // sweep.Run reads 0 as GOMAXPROCS
	} {
		if !got {
			t.Errorf("default %s wrong: %+v", name, cfg)
		}
	}
	neg := Config{CacheEntries: -1}.withDefaults()
	if neg.CacheEntries != -1 {
		t.Errorf("negative CacheEntries should survive as disabled, got %d", neg.CacheEntries)
	}
}
