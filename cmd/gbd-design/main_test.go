package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gbd "github.com/groupdetect/gbd"
)

func TestRunDesignWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("design workflow runs simulations; skipped in -short mode")
	}
	if err := run([]string{"-target", "0.7", "-n-max", "400"}); err != nil {
		t.Errorf("design run: %v", err)
	}
}

func TestRunDesignErrors(t *testing.T) {
	cases := [][]string{
		{"-target", "0.999999", "-n-max", "60"}, // unreachable requirement
		{"-rs", "-1"},                           // invalid scenario
		{"-nonsense"},                           // bad flag
		{"-budget", "2"},                        // invalid budget
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestRunRefusesNaN: a NaN range-checked flag is refused with an error
// that names it, instead of running (or failing later for another
// reason).
func TestRunRefusesNaN(t *testing.T) {
	for _, tc := range []struct {
		args []string
		name string
	}{
		{[]string{"-target", "NaN"}, "target"},
		{[]string{"-budget", "NaN"}, "budget"},
		{[]string{"-place", "-place-n", "8", "-place-trials", "50", "-min-gain", "NaN"}, "min-gain"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.name) || !strings.Contains(err.Error(), "NaN") {
			t.Errorf("run(%v) = %v, want an error naming %s = NaN", tc.args, err, tc.name)
		}
	}
}

func TestRunPlace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "layout.json")
	args := []string{
		"-place", "-place-n", "20", "-grid", "8x8",
		"-place-trials", "150", "-seed", "1",
		"-min-gain", "0", "-place-out", out,
	}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res gbd.PlacementResult
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Sensors) != 20 {
		t.Errorf("layout has %d sensors, want 20", len(res.Sensors))
	}
	if res.VsUniform.PlacedProb < res.VsUniform.UniformProb {
		t.Errorf("placed %v < uniform %v", res.VsUniform.PlacedProb, res.VsUniform.UniformProb)
	}
	if res.KMinExact < 1 {
		t.Errorf("k_min_exact = %d", res.KMinExact)
	}
}

func TestRunPlaceClasses(t *testing.T) {
	args := []string{
		"-place", "-classes", "6:1000:0.9,3:2000:0.7",
		"-grid", "8x8", "-place-trials", "100", "-seed", "1",
	}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
}

func TestRunPlaceErrors(t *testing.T) {
	cases := [][]string{
		{"-place", "-grid", "nonsense"},                      // bad grid spec
		{"-place", "-grid", "0x8"},                           // non-positive grid
		{"-place", "-classes", "6:1000"},                     // malformed class
		{"-place", "-classes", "x:1000:0.9"},                 // non-numeric count
		{"-place", "-rng", "quantum"},                        // unknown rng scheme
		{"-place", "-place-trials", "100", "-min-gain", "2"}, // unreachable gain gate
	}
	for _, args := range cases {
		args = append(args, "-place-n", "8", "-place-trials", "50")
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
