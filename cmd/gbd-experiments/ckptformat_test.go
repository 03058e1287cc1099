package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/groupdetect/gbd/internal/checkpoint"
)

// legacyDegradationPoints is the degradation table as gbd-experiments
// checkpointed it before the fault rows were computed through the shared
// point functions (-exp degradation -quick -trials 100, seed 1): points
// keyed "degradation/i" with an "AliveFrac" field, and the finished table.
// Its f = 0 row ran the Bernoulli fault path with a zero dead fraction,
// whose simulation column differs from today's fault-free campaign.
const legacyDegradationPoints = `{
		"degradation/0": {"AliveFrac": 1, "Ana": 0.7817920229472072, "Sim": 0.8},
		"degradation/1": {"AliveFrac": 0.9056666666666664, "Ana": 0.7310519606945006, "Sim": 0.72},
		"degradation/2": {"AliveFrac": 0.8084166666666665, "Ana": 0.6707127990967507, "Sim": 0.62},
		"degradation/3": {"AliveFrac": 0.7065833333333333, "Ana": 0.5999612919136598, "Sim": 0.52},
		"degradation/4": {"AliveFrac": 0.6050833333333333, "Ana": 0.5184712683230098, "Sim": 0.48},
		"degradation/5": {"AliveFrac": 0.5026666666666667, "Ana": 0.42679812923132515, "Sim": 0.37},
		"table/degradation": {"ID": "degradation", "Title": "Graceful degradation under node failures (sim vs analysis)", "Columns": ["dead_frac", "alive_frac", "analysis", "sim", "diff"], "Rows": [["0.0000", "1.0000", "0.7818", "0.8000", "0.0182"], ["0.1000", "0.9057", "0.7311", "0.7200", "0.0111"], ["0.2000", "0.8084", "0.6707", "0.6200", "0.0507"], ["0.3000", "0.7066", "0.6000", "0.5200", "0.0800"], ["0.4000", "0.6051", "0.5185", "0.4800", "0.0385"], ["0.5000", "0.5027", "0.4268", "0.3700", "0.0568"]], "Notes": ["max |analysis - sim| = 0.0800 over the sweep", "simulated detection monotone non-increasing in dead fraction: true", "analysis mirrors failures as effective density N' = N*(1-f) through the M-S-approach"]}}`

// TestLegacyCheckpointNeverMisread: a checkpoint.Get decode is a plain
// json.Unmarshal, so restoring the legacy points into today's point type
// would read the renamed alive fraction as zero and the old f = 0 row as
// current. The legacy checkpoint must either resume to exactly what a
// fresh run writes or be refused as stale.
func TestLegacyCheckpointNeverMisread(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "degradation", "-quick", "-trials", "100"}
	if err := run(append(append([]string{}, args...), "-out", filepath.Join(dir, "fresh"))); err != nil {
		t.Fatal(err)
	}
	fp, err := checkpoint.Fingerprint("gbd-experiments", struct {
		Trials int
		Quick  bool
	}{100, true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(map[string]any{
		"version": checkpoint.Version, "fingerprint": fp, "points": json.RawMessage(legacyDegradationPoints),
	})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "legacy.ckpt")
	if err := os.WriteFile(ckpt, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(append(append([]string{}, args...), "-checkpoint", ckpt, "-resume", "-out", filepath.Join(dir, "resumed")))
	if errors.Is(err, checkpoint.ErrFingerprint) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(filepath.Join(dir, "fresh", "degradation.txt"))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(filepath.Join(dir, "resumed", "degradation.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resumed) != string(fresh) {
		t.Errorf("legacy checkpoint resumed to\n%s\nfresh run wrote\n%s", resumed, fresh)
	}
}
