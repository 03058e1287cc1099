package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig8", "-quick"}); err != nil {
		t.Errorf("fig8: %v", err)
	}
	if err := run([]string{"-exp", "kmin", "-quick", "-csv"}); err != nil {
		t.Errorf("kmin csv: %v", err)
	}
	if err := run([]string{"-exp", "fig8", "-quick", "-plot"}); err != nil {
		t.Errorf("fig8 plot: %v", err)
	}
}

func TestRunWritesFiles(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "fig8", "-quick", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig8.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Required g") {
		t.Errorf("unexpected file contents:\n%s", data)
	}
	if err := run([]string{"-exp", "fig8", "-quick", "-csv", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig8.csv")); err != nil {
		t.Errorf("csv file missing: %v", err)
	}
}

// TestRetriesFlagAlias covers the sweep fault-policy vocabulary: -retries
// is the one spelling (its former alias -point-retries is refused as an
// unknown flag), and a negative count is rejected.
func TestRetriesFlagAlias(t *testing.T) {
	if err := run([]string{"-exp", "kmin", "-quick", "-retries", "1"}); err != nil {
		t.Errorf("-retries: %v", err)
	}
	if err := run([]string{"-exp", "kmin", "-quick", "-point-retries", "1"}); err == nil {
		t.Error("the retired -point-retries alias was accepted")
	}
	if err := run([]string{"-exp", "kmin", "-retries", "-1"}); err == nil {
		t.Error("negative -retries should fail")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := run([]string{"-trials", "-1", "-exp", "fig8"}); err == nil {
		t.Error("negative trials should fail")
	}
	if err := run([]string{"-zzz"}); err == nil {
		t.Error("bad flag should fail")
	}
}
