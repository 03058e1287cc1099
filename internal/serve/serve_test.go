package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"strings"
	"testing"
	"time"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/sweep"
)

func TestAnalyzeGolden(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, _, body := post(t, ts, "/v1/analyze", `{"scenario":{}}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := gbd.Analyze(gbd.Defaults(), gbd.MSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.DetectionProb != want.DetectionProb {
		t.Errorf("detection_prob = %v, want %v (bit-exact)", resp.DetectionProb, want.DetectionProb)
	}
	if math.Abs(resp.DetectionProb-0.780129) > 1e-6 {
		t.Errorf("detection_prob = %v, want the paper scenario's 0.780129", resp.DetectionProb)
	}
	if resp.Gh != want.Gh || resp.G != want.G {
		t.Errorf("gh/g = %d/%d, want %d/%d", resp.Gh, resp.G, want.Gh, want.G)
	}
	if resp.Scenario.N != 120 || resp.Scenario.K != 5 || resp.Scenario.M != 20 {
		t.Errorf("scenario echo wrong: %+v", resp.Scenario)
	}
	if resp.PMF != nil {
		t.Error("pmf should be omitted unless include_pmf is set")
	}
}

func TestAnalyzeVariants(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, _, body := post(t, ts, "/v1/analyze", `{"scenario":{},"options":{"include_pmf":true}}`)
	if code != http.StatusOK {
		t.Fatalf("include_pmf: status %d: %s", code, body)
	}
	var withPMF AnalyzeResponse
	if err := json.Unmarshal(body, &withPMF); err != nil {
		t.Fatal(err)
	}
	if len(withPMF.PMF) == 0 {
		t.Error("include_pmf response has no pmf")
	}

	code, _, body = post(t, ts, "/v1/analyze", `{"scenario":{},"h_nodes":2}`)
	if code != http.StatusOK {
		t.Fatalf("h_nodes: status %d: %s", code, body)
	}
	var nodes AnalyzeResponse
	if err := json.Unmarshal(body, &nodes); err != nil {
		t.Fatal(err)
	}
	want, err := gbd.AnalyzeNodes(gbd.Defaults(), 2, gbd.MSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nodes.DetectionProb != want.DetectionProb || nodes.HNodes != 2 {
		t.Errorf("nodes analysis = %v (h=%d), want %v", nodes.DetectionProb, nodes.HNodes, want.DetectionProb)
	}
}

func TestDesignEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, _, body := post(t, ts, "/v1/design", `{"scenario":{},"target_prob":0.8}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp DesignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.K < 1 || resp.N < 1 {
		t.Fatalf("degenerate design: K=%d N=%d", resp.K, resp.N)
	}
	if resp.DetectionProb < 0.8 {
		t.Errorf("designed detection_prob = %v, want >= target 0.8", resp.DetectionProb)
	}
	if resp.Scenario.N != resp.N || resp.Scenario.K != resp.K {
		t.Errorf("scenario echo (N=%d K=%d) disagrees with design (N=%d K=%d)",
			resp.Scenario.N, resp.Scenario.K, resp.N, resp.K)
	}
}

func TestLatencyEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, _, body := post(t, ts, "/v1/latency", `{"scenario":{}}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp LatencyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.P) != 20 || resp.FirstPeriod != 1 {
		t.Fatalf("CDF shape wrong: first=%d len=%d", resp.FirstPeriod, len(resp.P))
	}
	for i := 1; i < len(resp.P); i++ {
		if resp.P[i] < resp.P[i-1] {
			t.Errorf("CDF not monotone at %d: %v < %v", i, resp.P[i], resp.P[i-1])
		}
	}
	ana, err := gbd.Analyze(gbd.Defaults(), gbd.MSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.DetectionProb != resp.P[len(resp.P)-1] || math.Abs(resp.DetectionProb-ana.DetectionProb) > 1e-9 {
		t.Errorf("final CDF point %v should equal the detection probability %v", resp.DetectionProb, ana.DetectionProb)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, _, body := post(t, ts, "/v1/simulate", `{"scenario":{},"trials":200,"seed":1}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := gbd.Simulate(gbd.SimConfig{Params: gbd.Defaults(), Trials: 200, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.DetectionProb != want.DetectionProb || resp.Trials != 200 {
		t.Errorf("simulate = %v over %d trials, want %v (deterministic per seed)",
			resp.DetectionProb, resp.Trials, want.DetectionProb)
	}
	if resp.Faults != nil {
		t.Error("faults block should be omitted without fault injection")
	}

	code, _, body = post(t, ts, "/v1/simulate", `{"scenario":{},"trials":100,"seed":1,"dead_frac":0.3}`)
	if code != http.StatusOK {
		t.Fatalf("faulted: status %d: %s", code, body)
	}
	var faulted SimulateResponse
	if err := json.Unmarshal(body, &faulted); err != nil {
		t.Fatal(err)
	}
	if faulted.Faults == nil || faulted.Faults.MeanAliveFrac <= 0 || faulted.Faults.MeanAliveFrac >= 1 {
		t.Errorf("fault summary missing or implausible: %+v", faulted.Faults)
	}
}

// TestSweepZeroDeadFracMatchesSimulate: a dead_frac sweep row at 0 is the
// fault-free campaign, so its simulation column and Wilson interval are
// exactly /v1/simulate's for the same scenario, trials and seed — on the
// stream and on the sweep_point batch op alike. Each row is computed on
// its own cold server: the stream and the batch item share a cache key.
func TestSweepZeroDeadFracMatchesSimulate(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, _, body := post(t, ts, "/v1/simulate", `{"scenario":{},"trials":2000,"seed":4}`)
	if code != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", code, body)
	}
	var want SimulateResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/sweep", `{"scenario":{},"axis":"dead_frac","values":[0],"trials":2000,"seed":4}`},
		{"/v1/batch", `{"items":[{"op":"sweep_point","request":{"scenario":{},"axis":"dead_frac","value":0,"trials":2000,"seed":4}}]}`},
	} {
		cold := httptest.NewServer(New(Config{}).Handler())
		code, _, body := post(t, cold, tc.path, tc.body)
		cold.Close()
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, code, body)
		}
		rows := parseRows(t, body)
		if len(rows) != 1 || rows[0].Simulation == nil {
			t.Fatalf("%s: want one row with a simulation column, got %s", tc.path, body)
		}
		row := rows[0]
		if *row.Simulation != want.DetectionProb || *row.CILo != want.CILo || *row.CIHi != want.CIHi {
			t.Errorf("%s: dead_frac 0 row = %v [%v, %v], /v1/simulate = %v [%v, %v]", tc.path,
				*row.Simulation, *row.CILo, *row.CIHi, want.DetectionProb, want.CILo, want.CIHi)
		}
	}
}

func TestSweepStream(t *testing.T) {
	ts := httptest.NewServer(New(Config{Sweep: sweep.Options{Workers: 2}}).Handler())
	defer ts.Close()
	code, _, body := post(t, ts, "/v1/sweep", `{"scenario":{},"axis":"n","values":[60,120,180]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	rows := parseRows(t, body)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	prev := -1.0
	for i, row := range rows {
		if row.Index != i {
			t.Fatalf("row %d out of order: index %d", i, row.Index)
		}
		if row.Error != "" || row.Analysis == nil {
			t.Fatalf("row %d not a success row: %+v", i, row)
		}
		// More sensors → higher detection probability.
		if *row.Analysis < prev {
			t.Errorf("analysis not increasing in n at row %d", i)
		}
		prev = *row.Analysis
	}
}

// TestSweepRowsCached: every stream row resolves through the cache. A
// repeated sweep on one server returns the same bytes with one hit per
// row and no miss; a failed row is never cached, so repeating a sweep
// with an error row misses on that row alone.
func TestSweepRowsCached(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	for _, tc := range []struct {
		body         string
		hits, misses uint64
	}{
		{`{"scenario":{},"axis":"n","values":[60,90,120],"trials":200,"seed":9}`, 3, 0},
		{`{"scenario":{},"axis":"n","values":[70,-5,110],"keep_going":true}`, 2, 1},
	} {
		code, _, first := post(t, ts, "/v1/sweep", tc.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.body, code, first)
		}
		hits0, misses0 := cacheHits.Value(), cacheMisses.Value()
		code, _, again := post(t, ts, "/v1/sweep", tc.body)
		if code != http.StatusOK || !bytes.Equal(again, first) {
			t.Fatalf("%s: repeat status %d, bytes differ:\ngot  %q\nwant %q", tc.body, code, again, first)
		}
		if h, m := cacheHits.Value()-hits0, cacheMisses.Value()-misses0; h != tc.hits || m != tc.misses {
			t.Errorf("%s: repeat made %d hits and %d misses, want %d and %d", tc.body, h, m, tc.hits, tc.misses)
		}
	}
}

func TestSweepErrorRows(t *testing.T) {
	ts := httptest.NewServer(New(Config{Sweep: sweep.Options{Workers: 1}}).Handler())
	defer ts.Close()
	// keep_going: the bad middle point becomes an error row, the rest of
	// the curve still renders.
	code, _, body := post(t, ts, "/v1/sweep",
		`{"scenario":{},"axis":"n","values":[60,-5,120],"keep_going":true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	rows := parseRows(t, body)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[0].Error != "" || rows[2].Error != "" {
		t.Errorf("healthy points failed: %+v", rows)
	}
	if rows[1].Error == "" || rows[1].Analysis != nil {
		t.Errorf("bad point should be an error row: %+v", rows[1])
	}

	// Without keep_going, a single worker stops at the failure and the
	// tail is reported as skipped — still exactly one row per value.
	code, _, body = post(t, ts, "/v1/sweep",
		`{"scenario":{},"axis":"n","values":[60,-5,120]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	rows = parseRows(t, body)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[1].Error == "" {
		t.Errorf("failed point should carry its error: %+v", rows[1])
	}
	if !strings.Contains(rows[2].Error, "skipped") {
		t.Errorf("undispatched tail should be a skipped row: %+v", rows[2])
	}
}

func TestExperimentEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/experiments/kmin")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		dump, _ := httputil.DumpResponse(resp, true)
		t.Fatalf("status %d: %s", resp.StatusCode, dump)
	}
	var tbl TableResponse
	if err := json.NewDecoder(resp.Body).Decode(&tbl); err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "kmin" || len(tbl.Columns) == 0 || len(tbl.Rows) == 0 {
		t.Errorf("degenerate table: %+v", tbl)
	}

	notFound, err := http.Get(ts.URL + "/v1/experiments/nope")
	if err != nil {
		t.Fatal(err)
	}
	notFound.Body.Close()
	if notFound.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment: status %d, want 404", notFound.StatusCode)
	}

	bad, err := http.Get(ts.URL + "/v1/experiments/kmin?trials=-5")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("negative trials: status %d, want 400", bad.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v", health["status"])
	}

	// Generate some traffic, then check the snapshot carries the serve
	// counters.
	post(t, ts, "/v1/analyze", `{"scenario":{}}`)
	post(t, ts, "/v1/analyze", `{"scenario":{}}`)
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve.requests", "serve.cache.hits", "serve.latency.seconds", "serve.admitted"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("metrics snapshot missing %q", name)
		}
	}
}

// TestOversizedScenarioIs413: a scenario beyond the work bounds is
// refused with 413 before any compute, on every op and on every sweep row
// once its axis value is applied, so each answer comes back at once.
func TestOversizedScenarioIs413(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	cases := []struct{ path, body string }{
		{"/v1/analyze", `{"scenario":{"n":2000000}}`},
		{"/v1/analyze", `{"scenario":{"v":0.001}}`},
		{"/v1/analyze", `{"scenario":{"m":5000,"k":3}}`},
		{"/v1/latency", `{"scenario":{"v":1e-300}}`},
		{"/v1/simulate", `{"scenario":{"n":2000000},"trials":10}`},
		{"/v1/infer", `{"scenario":{"m":5000,"k":3},"trials":10}`},
		{"/v1/place", `{"scenario":{"v":0.001},"grid_cols":8,"grid_rows":8,"trials":10}`},
		{"/v1/place", `{"scenario":{"v":1},"classes":[{"count":5,"rs":15000,"pd":0.9}],"grid_cols":8,"grid_rows":8,"trials":10}`},
		{"/v1/design", `{"scenario":{},"n_max":2000000}`},
		{"/v1/design", `{"scenario":{},"horizon":2000000000}`},
		{"/v1/sweep", `{"scenario":{},"axis":"n","values":[60,2000000]}`},
		{"/v1/sweep", `{"scenario":{},"axis":"v","values":[10,1e-300]}`},
	}
	for _, tc := range cases {
		start := time.Now()
		code, _, body := post(t, ts, tc.path, tc.body)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s: status %d, want 413: %s", tc.path, tc.body, code, body)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s %s: answered in %v, want within a second", tc.path, tc.body, d)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: status %d, want 405", resp.StatusCode)
	}
}

func TestSweepIndexBase(t *testing.T) {
	// One worker, so the point after the failure is always skipped.
	ts := httptest.NewServer(New(Config{Sweep: sweep.Options{Workers: 1}}).Handler())
	defer ts.Close()
	code, _, body := post(t, ts, "/v1/sweep",
		`{"scenario":{},"axis":"n","values":[60,120],"index_base":7}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	rows := parseRows(t, body)
	if len(rows) != 2 || rows[0].Index != 7 || rows[1].Index != 8 {
		t.Fatalf("index_base not applied: %+v", rows)
	}

	// Error and skipped rows must carry the offset too: a coordinator
	// matches rows to its global grid purely by index.
	code, _, body = post(t, ts, "/v1/sweep",
		`{"scenario":{},"axis":"n","values":[-5,120],"index_base":3}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	rows = parseRows(t, body)
	if len(rows) != 2 || rows[0].Index != 3 || rows[1].Index != 4 {
		t.Fatalf("index_base missing on error/skipped rows: %+v", rows)
	}
	if rows[0].Error == "" || rows[1].Error == "" {
		t.Fatalf("expected error + skipped rows: %+v", rows)
	}

	code, _, body = post(t, ts, "/v1/sweep",
		`{"scenario":{},"axis":"n","values":[60],"index_base":-1}`)
	if code != http.StatusBadRequest {
		t.Fatalf("negative index_base: status %d: %s", code, body)
	}
}

func TestSweepHeartbeat(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	// A Monte Carlo point slow enough to span several 25ms heartbeat
	// periods: the stream must stay alive with {"hb":true} rows while the
	// point computes, then deliver the data row.
	code, _, body := post(t, ts, "/v1/sweep",
		`{"scenario":{},"axis":"n","values":[120],"trials":20000,"seed":1,"heartbeat_ms":25}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	hb := 0
	for _, line := range bytes.Split(body, []byte("\n")) {
		if isHeartbeatLine(line) {
			hb++
		}
	}
	if hb == 0 {
		t.Errorf("no heartbeat rows on a slow stream:\n%s", body)
	}
	rows := parseRows(t, body)
	if len(rows) != 1 || rows[0].Error != "" || rows[0].Simulation == nil {
		t.Fatalf("data row missing or broken among heartbeats: %+v", rows)
	}

	code, _, body = post(t, ts, "/v1/sweep",
		`{"scenario":{},"axis":"n","values":[60],"heartbeat_ms":-1}`)
	if code != http.StatusBadRequest {
		t.Fatalf("negative heartbeat_ms: status %d: %s", code, body)
	}
}

func TestSweepHeartbeatOptIn(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	// Heartbeats are opt-in: a plain sweep (no heartbeat_ms) must stream
	// result/error rows only, even when points are slow enough that an
	// always-on keep-alive would have fired many times. A naive NDJSON
	// consumer can therefore parse every line as a SweepRow.
	code, _, body := post(t, ts, "/v1/sweep",
		`{"scenario":{},"axis":"n","values":[100,120],"trials":20000,"seed":1}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	lines := 0
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		lines++
		if isHeartbeatLine(line) {
			t.Fatalf("heartbeat row leaked into a plain sweep stream: %s", line)
		}
		var row SweepRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("line %q is not a SweepRow: %v", line, err)
		}
	}
	if lines != 2 {
		t.Fatalf("plain stream has %d lines, want exactly one row per value (2):\n%s", lines, body)
	}
}

// isHeartbeatLine reports whether an NDJSON line is a keep-alive row.
func isHeartbeatLine(line []byte) bool {
	var hb Heartbeat
	return len(bytes.TrimSpace(line)) > 0 && json.Unmarshal(line, &hb) == nil && hb.HB
}

// parseRows splits an NDJSON body into SweepRows, skipping keep-alive
// heartbeat lines.
func parseRows(t *testing.T, body []byte) []SweepRow {
	t.Helper()
	var rows []SweepRow
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || isHeartbeatLine([]byte(line)) {
			continue
		}
		var row SweepRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}
