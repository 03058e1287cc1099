package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/fabric/chaos"
	"github.com/groupdetect/gbd/internal/peer"
	"github.com/groupdetect/gbd/internal/serve"
)

// newWorker stands up one in-process gbd-server worker.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// campaign is the shared test grid: 12 n-values with a Monte Carlo
// column, small enough to run in milliseconds but wide enough to spread
// over a 3-worker fleet.
func campaign(points int) serve.SweepRequest {
	values := make([]float64, points)
	for i := range values {
		values[i] = float64(40 + 20*i)
	}
	return serve.SweepRequest{
		Axis:   serve.AxisN,
		Values: values,
		Trials: 200,
		Seed:   7,
	}
}

// reference fetches the single-machine stream for req from a fresh,
// fault-free worker: the byte-identity target for every merged result.
// Heartbeat lines are filtered (they are keep-alives, not rows).
func reference(t *testing.T, req serve.SweepRequest) []byte {
	t.Helper()
	ts := newWorker(t)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("reference stream: status %d, err %v", resp.StatusCode, err)
	}
	var out bytes.Buffer
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		if len(line) == 0 || bytes.Contains(line, []byte(`"hb":true`)) {
			continue
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// merged renders the coordinator's reassembled stream.
func merged(t *testing.T, c *Coordinator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteMerged(&buf); err != nil {
		t.Fatalf("WriteMerged: %v", err)
	}
	return buf.Bytes()
}

// assertNoDoubleCount parses the merged stream and fails on any missing,
// repeated, or out-of-place global index.
func assertNoDoubleCount(t *testing.T, stream []byte, points int) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(stream), []byte{'\n'})
	if len(lines) != points {
		t.Fatalf("merged stream has %d rows, want %d", len(lines), points)
	}
	for i, line := range lines {
		var row struct {
			Index int `json:"index"`
		}
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("row %d does not parse: %v (%q)", i, err, line)
		}
		if row.Index != i {
			t.Fatalf("row %d carries index %d: a shard double-counted or landed out of place", i, row.Index)
		}
	}
}

func baseConfig(t *testing.T, workers []string, req serve.SweepRequest) Config {
	t.Helper()
	return Config{
		Workers:      workers,
		Request:      req,
		LedgerPath:   filepath.Join(t.TempDir(), "ledger.json"),
		ShardSize:    3,
		Retries:      8,
		RetryBackoff: 2 * time.Millisecond,
		StallTimeout: 5 * time.Second,
		// Hedging off unless a test turns it on: deterministic dispatch
		// accounting is easier to assert without speculative twins.
		MaxHedges:        0,
		CircuitThreshold: 2,
		CircuitCooldown:  20 * time.Millisecond,
		Tick:             2 * time.Millisecond,
	}
}

// TestCleanFleet: a healthy 3-worker fleet reassembles the campaign
// byte-identically to a single-machine run, with no retries or hedges.
func TestCleanFleet(t *testing.T) {
	req := campaign(12)
	workers := []string{newWorker(t).URL, newWorker(t).URL, newWorker(t).URL}
	c, err := New(baseConfig(t, workers, req))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Shards != 4 || rep.Completed != 4 || rep.Retried != 0 || rep.Hedged != 0 {
		t.Fatalf("clean fleet report off: %+v", rep)
	}
	got, want := merged(t, c), reference(t, req)
	if !bytes.Equal(got, want) {
		t.Fatalf("merged stream differs from single-machine run:\ngot:\n%s\nwant:\n%s", got, want)
	}
	assertNoDoubleCount(t, got, 12)
}

// TestChaosByteIdentity is the acceptance test: a seeded chaos schedule
// (connection drops, 503 bursts, mid-row stream truncation) plus a worker
// killed mid-campaign must not change a single byte of the merged result,
// and every recovery action must be recorded.
func TestChaosByteIdentity(t *testing.T) {
	req := campaign(36)
	backing := []*httptest.Server{newWorker(t), newWorker(t), newWorker(t)}
	var urls []string
	for i, ts := range backing {
		p, err := chaos.Start(chaos.Config{
			Seed:          int64(100 + i),
			Target:        ts.URL,
			DropEvery:     5,
			Err503Every:   4,
			TruncateEvery: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		urls = append(urls, p.URL())
	}
	cfg := baseConfig(t, urls, req)
	cfg.Retries = 25 // the schedule faults roughly half of all requests

	// SIGKILL-equivalent: the first completed shard triggers the death of
	// worker 0's backing server — in-flight streams reset, later dials are
	// refused — while its chaos proxy stays up, like a dead host behind a
	// live load balancer.
	var killOnce sync.Once
	cfg.OnEvent = func(ev Event) {
		if ev.Type == "complete" {
			killOnce.Do(func() { backing[0].CloseClientConnections(); backing[0].Close() })
		}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run under chaos: %v\nreport: %+v", err, rep)
	}
	got, want := merged(t, c), reference(t, req)
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos changed the merged bytes:\ngot:\n%s\nwant:\n%s", got, want)
	}
	assertNoDoubleCount(t, got, 36)
	if rep.Retried == 0 {
		t.Fatalf("chaos run recorded no retries: %+v", rep)
	}
	if rep.Opens == 0 {
		t.Fatalf("a killed worker never opened its circuit: %+v", rep)
	}
	// Every retry and circuit transition must be in the event log.
	count := map[string]int{}
	for _, ev := range rep.Events {
		count[ev.Type]++
	}
	if count["retry"] != rep.Retried || count["circuit_open"] != rep.Opens {
		t.Fatalf("event log disagrees with counters: %v vs %+v", count, rep)
	}
}

// TestResume: a coordinator restarted over a half-filled ledger
// recomputes only the missing shards and still reproduces the exact
// single-machine bytes.
func TestResume(t *testing.T) {
	req := campaign(12)
	want := reference(t, req)
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.json")

	// Seed the ledger with the first 5 rows, as if a previous coordinator
	// died mid-campaign.
	fp, err := Fingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	led, err := openLedger(path, fp, len(req.Values), false)
	if err != nil {
		t.Fatal(err)
	}
	rows := bytes.Split(bytes.TrimSpace(want), []byte{'\n'})
	if _, err := led.commit(0, rows[:5]); err != nil {
		t.Fatal(err)
	}

	cfg := baseConfig(t, []string{newWorker(t).URL}, req)
	cfg.LedgerPath = path
	cfg.Resume = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 5 {
		t.Fatalf("restored %d rows, want 5", rep.Restored)
	}
	// 7 missing rows at ShardSize 3 = shards {5,6,7} {8,9,10} {11}.
	if rep.Shards != 3 {
		t.Fatalf("resume planned %d shards, want 3: %+v", rep.Shards, rep)
	}
	if got := merged(t, c); !bytes.Equal(got, want) {
		t.Fatalf("resumed merge differs:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// A second resume owes nothing and dispatches nothing.
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Dispatched != 0 || rep2.Restored != 12 {
		t.Fatalf("idle resume dispatched work: %+v", rep2)
	}
}

// TestResumeRefusesForeignLedger: a ledger written by a different
// campaign (different seed here) must be refused, not merged.
func TestResumeRefusesForeignLedger(t *testing.T) {
	req := campaign(6)
	path := filepath.Join(t.TempDir(), "ledger.json")
	fp, err := Fingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	led, err := openLedger(path, fp, len(req.Values), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := led.commit(0, [][]byte{[]byte(`{"index":0}`)}); err != nil {
		t.Fatal(err)
	}
	other := req
	other.Seed = 99
	cfg := baseConfig(t, []string{"http://127.0.0.1:0"}, other)
	cfg.LedgerPath = path
	cfg.Resume = true
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a ledger from a different campaign")
	}
}

// TestHedging: a worker that accepts a shard and then never answers is
// out-raced by a speculative twin; the stall watchdog is disabled so only
// hedging can save the campaign.
func TestHedging(t *testing.T) {
	req := campaign(12)
	good := newWorker(t)
	// The black hole takes requests and holds them until the client gives
	// up — a straggler, not a dead host.
	hole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read starts and the
		// handler unblocks when the hedging/stalled client hangs up.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(hole.Close)

	cfg := baseConfig(t, []string{good.URL, hole.URL}, req)
	cfg.StallTimeout = -1 // force the hedge path, not the watchdog
	cfg.MaxHedges = 1
	cfg.HedgeMinSamples = 1
	cfg.HedgeMinDelay = 5 * time.Millisecond
	cfg.HedgeFactor = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("Run: %v\nreport: %+v", err, rep)
	}
	if rep.Hedged == 0 {
		t.Fatalf("no hedges fired against a black-hole worker: %+v", rep)
	}
	if got, want := merged(t, c), reference(t, req); !bytes.Equal(got, want) {
		t.Fatalf("hedged merge differs from single-machine run")
	}
}

// TestStallWatchdog: with hedging off, the stall watchdog alone must
// reclaim shards stuck on a silent worker.
func TestStallWatchdog(t *testing.T) {
	req := campaign(6)
	good := newWorker(t)
	hole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read starts and the
		// handler unblocks when the hedging/stalled client hangs up.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(hole.Close)
	cfg := baseConfig(t, []string{good.URL, hole.URL}, req)
	cfg.StallTimeout = 50 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v\nreport: %+v", err, rep)
	}
	if rep.Retried == 0 {
		t.Fatalf("stalled shards were never retried: %+v", rep)
	}
	if got, want := merged(t, c), reference(t, req); !bytes.Equal(got, want) {
		t.Fatalf("watchdog-recovered merge differs from single-machine run")
	}
}

// TestCircuitBreaker: a worker answering nothing but 503 is cut off after
// the consecutive-failure threshold while the healthy worker finishes the
// campaign.
func TestCircuitBreaker(t *testing.T) {
	req := campaign(12)
	good := newWorker(t)
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "sick", http.StatusServiceUnavailable)
	}))
	t.Cleanup(sick.Close)
	cfg := baseConfig(t, []string{good.URL, sick.URL}, req)
	cfg.CircuitCooldown = 10 * time.Second // stays open for the whole test
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v\nreport: %+v", err, rep)
	}
	if rep.Opens == 0 {
		t.Fatalf("all-503 worker never opened its circuit: %+v", rep)
	}
	sickFails := rep.Workers[1].Failures
	if sickFails < 2 {
		t.Fatalf("sick worker records %d failures, want >= threshold", sickFails)
	}
	if got, want := merged(t, c), reference(t, req); !bytes.Equal(got, want) {
		t.Fatalf("circuit-broken merge differs from single-machine run")
	}
}

// TestLowestIndexError: an application-level point failure surfaces at
// its global index — the error a sequential single-machine sweep would
// have reported first — and never commits poisoned shard rows.
func TestLowestIndexError(t *testing.T) {
	req := campaign(6)
	req.Values[3] = -1 // n = -1 fails parameter validation at the worker
	cfg := baseConfig(t, []string{newWorker(t).URL, newWorker(t).URL}, req)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background())
	if err == nil {
		t.Fatal("campaign with a failing point reported success")
	}
	if !strings.Contains(err.Error(), "point 3") {
		t.Fatalf("error %q does not name global point 3", err)
	}
}

// TestKeepGoingByteIdentity: in keep-going mode error rows are data, and
// the fleet's merged stream — error rows included — must still match the
// single-machine bytes.
func TestKeepGoingByteIdentity(t *testing.T) {
	req := campaign(9)
	req.Values[4] = -1
	req.KeepGoing = true
	cfg := baseConfig(t, []string{newWorker(t).URL, newWorker(t).URL}, req)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatalf("keep-going Run: %v", err)
	}
	got, want := merged(t, c), reference(t, req)
	if !bytes.Equal(got, want) {
		t.Fatalf("keep-going merge differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !bytes.Contains(got, []byte(`"error"`)) {
		t.Fatal("keep-going merge has no error row for the failing point")
	}
}

// TestLedgerIdempotency exercises the double-count guard directly:
// duplicate commits are verified no-ops, conflicting bytes are fatal.
func TestLedgerIdempotency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	led, err := openLedger(path, "fp-test", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]byte{[]byte(`{"index":0,"v":1}`), []byte(`{"index":1,"v":2}`)}
	if fresh, err := led.commit(0, rows); err != nil || fresh != 2 {
		t.Fatalf("first commit: fresh=%d err=%v", fresh, err)
	}
	// Identical duplicate (a hedge loser): zero fresh rows, no error.
	if fresh, err := led.commit(0, rows); err != nil || fresh != 0 {
		t.Fatalf("duplicate commit: fresh=%d err=%v", fresh, err)
	}
	// Conflicting duplicate: hard error, never an overwrite.
	if _, err := led.commit(1, [][]byte{[]byte(`{"index":1,"v":666}`)}); err == nil {
		t.Fatal("conflicting commit was accepted")
	}
	if got := string(led.rows[1]); got != `{"index":1,"v":2}` {
		t.Fatalf("conflict overwrote the committed row: %q", got)
	}
	if got := led.missing(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("missing = %v, want [2 3]", got)
	}

	// The ledger round-trips bytes exactly through the checkpoint file.
	led2, err := openLedger(path, "fp-test", 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if led2.restored() != 2 || !bytes.Equal(led2.rows[0], rows[0]) || !bytes.Equal(led2.rows[1], rows[1]) {
		t.Fatalf("resumed ledger rows differ: %q / %q", led2.rows[0], led2.rows[1])
	}
}

// TestBreakerStateMachine walks the circuit through open, cooldown,
// probe, re-open, and recovery.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := peer.Breaker{Threshold: 3, Cooldown: time.Second}
	if !b.Admissible(now) {
		t.Fatal("fresh breaker not admissible")
	}
	if b.OnFailure(now) || b.OnFailure(now) {
		t.Fatal("breaker opened below threshold")
	}
	if !b.OnFailure(now) {
		t.Fatal("breaker did not open at threshold")
	}
	if b.Admissible(now.Add(500 * time.Millisecond)) {
		t.Fatal("open breaker admitted during cooldown")
	}
	probeTime := now.Add(time.Second)
	if !b.Admissible(probeTime) {
		t.Fatal("cooled breaker refused its probe")
	}
	if !b.OnDispatch() {
		t.Fatal("cooled dispatch not flagged as probe")
	}
	if b.Admissible(probeTime) {
		t.Fatal("second dispatch admitted while probing")
	}
	if !b.OnFailure(probeTime) {
		t.Fatal("failed probe did not re-open")
	}
	again := probeTime.Add(time.Second)
	if !b.Admissible(again) {
		t.Fatal("re-opened breaker refused its second probe")
	}
	b.OnDispatch()
	b.OnSuccess()
	if !b.Admissible(again) || b.OnFailure(again) || b.OnFailure(again) {
		t.Fatalf("successful probe did not close the breaker: %+v", b)
	}
}

// TestFingerprintSeparatesCampaigns: any campaign-identity change must
// change the ledger fingerprint.
func TestFingerprintSeparatesCampaigns(t *testing.T) {
	base := campaign(4)
	fpBase, err := Fingerprint(base)
	if err != nil {
		t.Fatal(err)
	}
	mutate := map[string]func(*serve.SweepRequest){
		"seed":   func(r *serve.SweepRequest) { r.Seed++ },
		"trials": func(r *serve.SweepRequest) { r.Trials++ },
		"values": func(r *serve.SweepRequest) { r.Values = r.Values[:3] },
		"axis":   func(r *serve.SweepRequest) { r.Axis = serve.AxisV },
		"keep":   func(r *serve.SweepRequest) { r.KeepGoing = true },
	}
	for name, fn := range mutate {
		r := campaign(4)
		fn(&r)
		fp, err := Fingerprint(r)
		if err != nil {
			t.Fatal(err)
		}
		if fp == fpBase {
			t.Fatalf("%s change did not change the fingerprint", name)
		}
	}
}

// TestShardPlanning checks contiguous-run chunking around ledger gaps.
func TestShardPlanning(t *testing.T) {
	req := campaign(10)
	cfg := baseConfig(t, []string{"http://127.0.0.1:0"}, req)
	cfg.ShardSize = 4
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Commit rows 2..4 and 7: missing = [0 1] [5 6] [8 9].
	for _, i := range []int{2, 3, 4, 7} {
		if _, err := c.led.commit(i, [][]byte{[]byte(fmt.Sprintf(`{"index":%d}`, i))}); err != nil {
			t.Fatal(err)
		}
	}
	shards := c.planShards()
	var got []string
	for _, sh := range shards {
		got = append(got, fmt.Sprintf("%d+%d", sh.start, len(sh.values)))
	}
	want := []string{"0+2", "5+2", "8+2"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("planShards = %v, want %v", got, want)
	}
}

// TestBatchModeByteIdentity: UseBatch dispatches shards as /v1/batch
// sweep_point items, and the merged result is still byte-identical to a
// single-machine /v1/sweep stream.
func TestBatchModeByteIdentity(t *testing.T) {
	req := campaign(12)
	want := reference(t, req)
	workers := []string{newWorker(t).URL, newWorker(t).URL, newWorker(t).URL}
	cfg := baseConfig(t, workers, req)
	cfg.UseBatch = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Completed != rep.Shards || rep.Retried != 0 {
		t.Fatalf("batch-mode report off: %+v", rep)
	}
	got := merged(t, c)
	if !bytes.Equal(got, want) {
		t.Fatalf("batch-mode merged stream differs from single-machine stream:\ngot  %q\nwant %q", got, want)
	}
	assertNoDoubleCount(t, got, len(req.Values))
}

// TestBatchModeRejectsKeepGoing: batch error lines carry no index, so a
// keep-going campaign cannot be reproduced in batch mode — New refuses.
func TestBatchModeRejectsKeepGoing(t *testing.T) {
	req := campaign(4)
	req.KeepGoing = true
	cfg := baseConfig(t, []string{"http://127.0.0.1:0"}, req)
	cfg.UseBatch = true
	if _, err := New(cfg); err == nil {
		t.Fatal("UseBatch with keep_going should be rejected")
	}
}

// TestBatchModePointError: an invalid point inside a batch shard surfaces
// as a permanent pointError at the campaign-global index of the failed
// item, preserving the lowest-index-error contract.
func TestBatchModePointError(t *testing.T) {
	req := campaign(6)
	req.Values[4] = -50 // invalid n: the point fails permanently
	cfg := baseConfig(t, []string{newWorker(t).URL}, req)
	cfg.UseBatch = true
	cfg.ShardSize = 6
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background())
	var pe *pointError
	if err == nil || !errorsAs(err, &pe) || pe.index != 4 {
		t.Fatalf("Run err = %v, want pointError at index 4", err)
	}
}

// TestRetryAfterBackoff: a worker shedding with Retry-After pushes the
// shard's next dispatch out at least that far — the scheduler must not
// hammer an overloaded worker at its own jittered (much shorter) backoff.
func TestRetryAfterBackoff(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Errorf("parseRetryAfter(3) = %v", d)
	}
	for _, bad := range []string{"", "x", "-2", "0"} {
		if d := parseRetryAfter(bad); d != 0 {
			t.Errorf("parseRetryAfter(%q) = %v, want 0", bad, d)
		}
	}
	if got := retryAfterHint(&transportError{retryAfter: 2 * time.Second}); got != 2*time.Second {
		t.Errorf("retryAfterHint = %v", got)
	}
	if got := retryAfterHint(&rejectError{}); got != 0 {
		t.Errorf("retryAfterHint(reject) = %v, want 0", got)
	}

	// End to end: a worker that sheds the first attempt with
	// Retry-After: 1 then serves. The retry must land at least ~1s later
	// even though RetryBackoff is 2ms.
	real := newWorker(t)
	var mu sync.Mutex
	shed := true
	var shedAt, retryAt time.Time
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		first := shed
		shed = false
		if first {
			shedAt = time.Now()
			mu.Unlock()
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		retryAt = time.Now()
		mu.Unlock()
		u := *r.URL
		pr, err := http.Post(real.URL+u.Path, "application/json", r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer pr.Body.Close()
		w.WriteHeader(pr.StatusCode)
		io.Copy(w, pr.Body)
	}))
	t.Cleanup(proxy.Close)

	req := campaign(3)
	cfg := baseConfig(t, []string{proxy.URL}, req)
	cfg.ShardSize = 3
	cfg.CircuitThreshold = 10 // keep the lone worker admissible
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Retried != 1 {
		t.Fatalf("retried = %d, want 1: %+v", rep.Retried, rep)
	}
	mu.Lock()
	gap := retryAt.Sub(shedAt)
	mu.Unlock()
	if gap < 900*time.Millisecond {
		t.Fatalf("retry landed %v after the shed, want >= ~1s (Retry-After honored)", gap)
	}
}

// errorsAs is a local alias so the test reads cleanly.
func errorsAs(err error, target any) bool { return errors.As(err, target) }
