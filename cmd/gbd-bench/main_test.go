package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/groupdetect/gbd/internal/benchsuite"
	"github.com/groupdetect/gbd/internal/obs"
)

// TestSuiteMatchesSnapshot pins the suite to the latest committed
// snapshot: the same names in the same order, no name twice, and every
// gated name a suite entry. Dropping or renaming a benchmark, or pointing
// the -compare gate at a name that no longer exists, fails here. A
// snapshot entry named "Name@commit" records the same body measured at
// an earlier commit, next to the current run, and is not a suite name.
func TestSuiteMatchesSnapshot(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCH_PR34.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snapshot []Result
	if err := json.Unmarshal(blob, &snapshot); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, r := range snapshot {
		if !strings.Contains(r.Name, "@") {
			want = append(want, r.Name)
		}
	}
	inSuite := make(map[string]bool, len(benchsuite.All))
	for _, bm := range benchsuite.All {
		if inSuite[bm.Name] {
			t.Errorf("benchmark %q listed twice", bm.Name)
		}
		inSuite[bm.Name] = true
		got = append(got, bm.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("suite names = %v\nsnapshot names = %v", got, want)
	}
	for name := range gated {
		if !inSuite[name] {
			t.Errorf("gated benchmark %q is not in the suite", name)
		}
	}
}

func TestRunFilteredReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark; skipped in -short mode")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	manifest := filepath.Join(dir, "manifest.json")
	args := []string{"-bench", "LossyDelivery", "-out", out, "-metrics-out", manifest}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var results []Result
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Name != "LossyDelivery" {
		t.Errorf("results = %+v, want exactly LossyDelivery", results)
	}
	if results[0].NsPerOp <= 0 || results[0].Iterations <= 0 {
		t.Errorf("implausible measurement: %+v", results[0])
	}
	mdata, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifestJSON(mdata); err != nil {
		t.Error(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-bench", "NoSuchBenchmark"}); err == nil {
		t.Error("unmatched -bench filter should fail")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("bad flag should fail")
	}
}

// TestCompareGatesOnFastestRun checks the repeat-and-take-minimum policy:
// a gated benchmark passes when its fastest run is within 10% of the
// baseline, however slow its other runs were, and fails only when every
// run regressed.
func TestCompareGatesOnFastestRun(t *testing.T) {
	baseline := []Result{
		{Name: "SimulationSingleTrial", NsPerOp: 1000},
		{Name: "FaultyTrial", NsPerOp: 1000},
		{Name: "ServedAnalyzeCached", NsPerOp: 1000},
	}
	blob, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	runs := func(faulty ...float64) []Result {
		rs := []Result{
			{Name: "SimulationSingleTrial", NsPerOp: 1000},
			{Name: "ServedAnalyzeCached", NsPerOp: 1000},
		}
		for _, ns := range faulty {
			rs = append(rs, Result{Name: "FaultyTrial", NsPerOp: ns})
		}
		return rs
	}
	if err := compareBaseline(path, runs(1500, 1050, 1400)); err != nil {
		t.Errorf("fastest run within 10%% must pass: %v", err)
	}
	if err := compareBaseline(path, runs(1500, 1200, 1400)); err == nil {
		t.Error("every run over 10% must fail the gate")
	}
	got := fastest(runs(1500, 1050, 1400))
	if len(got) != 3 || got[2].Name != "FaultyTrial" || got[2].NsPerOp != 1050 {
		t.Errorf("fastest = %+v, want one FaultyTrial entry at 1050 ns/op after the other two", got)
	}
}
