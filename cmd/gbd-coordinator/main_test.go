package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/serve"
)

func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// reference fetches the single-machine NDJSON stream for the test
// campaign, heartbeat lines filtered.
func reference(t *testing.T, body string) []byte {
	t.Helper()
	ts := newWorker(t)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("reference: status %d err %v", resp.StatusCode, err)
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

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-unknown"},
		{},                       // no workers
		{"-workers", "http://x"}, // no values
		{"-workers", "http://x", "-values", "60"}, // no ledger
		{"-workers", "http://x", "-values", "60,oops", "-ledger", "l.json"},
		{"-workers", "http://x", "-values", "60", "-ledger", "l.json", "-scenario", `{"bogus":1}`},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestScenarioCheckedLocally: a -scenario value with trailing data or an
// invalid parameter fails before any ledger is written or shard
// dispatched. The worker URL points at a closed port, so a run that got
// as far as dispatch would fail with a connection error instead.
func TestScenarioCheckedLocally(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()
	for _, scen := range []string{`{"k":3} trailing`, `{"k":0}`, `{"period_seconds":-1}`} {
		ledger := filepath.Join(t.TempDir(), "ledger.json")
		err := run([]string{"-workers", url, "-values", "60", "-ledger", ledger,
			"-retries", "0", "-scenario", scen}, io.Discard)
		if err == nil || !strings.HasPrefix(err.Error(), "-scenario: ") {
			t.Errorf("-scenario %s: err = %v, want a -scenario error", scen, err)
		}
		if _, serr := os.Stat(ledger); !os.IsNotExist(serr) {
			t.Errorf("-scenario %s: ledger file exists (stat err %v)", scen, serr)
		}
	}
}

// TestCampaignEndToEnd drives the full CLI path: a 2-worker fleet, a
// merged output file byte-identical to a single-machine stream, a
// campaign report, and a valid run manifest carrying the fabric metrics.
func TestCampaignEndToEnd(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "merged.ndjson")
	repPath := filepath.Join(dir, "report.json")
	manPath := filepath.Join(dir, "manifest.json")
	w1, w2 := newWorker(t), newWorker(t)

	var sb strings.Builder
	args := []string{
		"-workers", w1.URL + "," + w2.URL,
		"-axis", "n", "-values", "60,80,100,120,140,160,180,200",
		"-trials", "200", "-seed", "7", "-shard-size", "2",
		"-ledger", filepath.Join(dir, "ledger.json"),
		"-out", outPath, "-report", repPath, "-metrics-out", manPath,
	}
	if err := run(args, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}

	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(t, `{"scenario":{},"axis":"n","values":[60,80,100,120,140,160,180,200],"trials":200,"seed":7}`)
	if !bytes.Equal(got, want) {
		t.Fatalf("merged output differs from single-machine stream:\ngot:\n%s\nwant:\n%s", got, want)
	}

	repBlob, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Points     int `json:"points"`
		Shards     int `json:"shards"`
		Dispatched int `json:"dispatched"`
		Events     []struct {
			Type string `json:"type"`
		} `json:"events"`
	}
	if err := json.Unmarshal(repBlob, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Points != 8 || rep.Shards != 4 || rep.Dispatched < 4 || len(rep.Events) < 8 {
		t.Fatalf("report off: %+v", rep)
	}

	manBlob, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifestJSON(manBlob); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if !bytes.Contains(manBlob, []byte("fabric.shards")) {
		t.Fatal("manifest metrics snapshot lacks fabric counters")
	}
}

// TestCampaignWithChaosFlags exercises the CLI's built-in chaos wrapping:
// the seeded fault schedule must not change the merged bytes, and the
// report must record the recovery work and the injected faults.
func TestCampaignWithChaosFlags(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "merged.ndjson")
	repPath := filepath.Join(dir, "report.json")
	w1, w2 := newWorker(t), newWorker(t)

	var sb strings.Builder
	args := []string{
		"-workers", w1.URL + "," + w2.URL,
		"-axis", "n", "-values", "60,80,100,120,140,160,180,200",
		"-trials", "200", "-seed", "7", "-shard-size", "2",
		"-retries", "20", "-retry-backoff", "2ms",
		"-circuit-cooldown", "20ms",
		"-chaos-seed", "11", "-chaos-503-every", "3", "-chaos-drop-every", "4", "-chaos-truncate-every", "5",
		"-ledger", filepath.Join(dir, "ledger.json"),
		"-out", outPath, "-report", repPath,
	}
	if err := run(args, &sb); err != nil {
		t.Fatalf("run under chaos: %v", err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(t, `{"scenario":{},"axis":"n","values":[60,80,100,120,140,160,180,200],"trials":200,"seed":7}`)
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos changed the merged bytes:\ngot:\n%s\nwant:\n%s", got, want)
	}
	var rep struct {
		Chaos []struct {
			Requests int64 `json:"requests"`
		} `json:"chaos"`
	}
	blob, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Chaos) != 2 || rep.Chaos[0].Requests == 0 {
		t.Fatalf("report lacks chaos proxy tallies: %+v", rep)
	}
}

// TestResumeCLI kills nothing but proves the flag path: a second run with
// -resume over a completed ledger dispatches no work and reproduces the
// same bytes.
func TestResumeCLI(t *testing.T) {
	dir := t.TempDir()
	out1 := filepath.Join(dir, "a.ndjson")
	out2 := filepath.Join(dir, "b.ndjson")
	repPath := filepath.Join(dir, "report.json")
	w := newWorker(t)
	base := []string{
		"-workers", w.URL,
		"-axis", "n", "-values", "60,80,100,120", "-trials", "100", "-seed", "3",
		"-ledger", filepath.Join(dir, "ledger.json"),
	}
	var sb strings.Builder
	if err := run(append(base, "-out", out1), &sb); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-resume", "-out", out2, "-report", repPath), &sb); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(out1)
	b, _ := os.ReadFile(out2)
	if !bytes.Equal(a, b) || len(a) == 0 {
		t.Fatalf("resumed output differs from original")
	}
	blob, _ := os.ReadFile(repPath)
	var rep struct {
		Dispatched int `json:"dispatched"`
		Restored   int `json:"restored"`
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Dispatched != 0 || rep.Restored != 4 {
		t.Fatalf("resume recomputed work: %+v", rep)
	}
}
