package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/checkpoint"
	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/obs"
)

// legacyFingerprint is the checkpoint identity gbd-faults has always
// written, spelled out field by field so a change to it shows here.
type legacyFingerprint struct {
	Params    detect.Params
	Trials    int
	MaxDead   float64
	DeadSteps int
	LossSweep bool
	MaxLoss   float64
	CommRange float64
	Loss      netsim.LossModel
	RNG       string  `json:",omitempty"`
	Infer     bool    `json:",omitempty"`
	InferPD   float64 `json:"InferPDeliver,omitempty"`
}

// TestLegacyCheckpointResumes: checkpoints written before the sweep rows
// were computed through internal/experiments' shared point functions hold
// each point under the field names below. checkpoint.Get decodes with
// plain json.Unmarshal, so a renamed field would silently restore as zero;
// instead every legacy point must restore without re-running and print
// exactly what a fresh run prints.
func TestLegacyCheckpointResumes(t *testing.T) {
	loss := netsim.LossModel{PerHopDelivery: 1, MaxRetries: 2, PerHop: 10 * time.Second,
		Backoff: 5 * time.Second, Budget: detect.Defaults().T}
	for _, tc := range []struct {
		name   string
		args   []string
		fp     legacyFingerprint
		points string
	}{
		{
			name: "dead",
			args: []string{"-trials", "100", "-dead-steps", "2", "-max-dead", "0.2", "-seed", "3"},
			fp:   legacyFingerprint{Trials: 100, MaxDead: 0.2, DeadSteps: 2, MaxLoss: 0.5, CommRange: 6000},
			points: `{
				"dead/0": {"Alive": 1, "Ana": 0.780128729364132, "Sim": 0.78},
				"dead/1": {"Alive": 0.9002499999999998, "Ana": 0.7295492160793027, "Sim": 0.73},
				"dead/2": {"Alive": 0.7964999999999998, "Ana": 0.6694144035525672, "Sim": 0.67}}`,
		},
		{
			name: "loss",
			args: []string{"-loss-sweep", "-trials", "60", "-dead-steps", "2", "-max-loss", "0.4", "-seed", "3"},
			fp:   legacyFingerprint{Trials: 60, MaxDead: 0.5, DeadSteps: 2, LossSweep: true, MaxLoss: 0.4, CommRange: 6000},
			points: `{
				"loss/0": {"Arrived": 1, "Ana": 0.780128729364132, "Sim": 0.8, "Rerouted": 5},
				"loss/1": {"Arrived": 0.9768339768339769, "Ana": 0.7730434840476507, "Sim": 0.7833333333333333, "Rerouted": 6},
				"loss/2": {"Arrived": 0.8268482490272373, "Ana": 0.712644019861248, "Sim": 0.75, "Rerouted": 6}}`,
		},
		{
			name: "infer",
			args: []string{"-infer", "-trials", "60", "-dead-steps", "2", "-max-dead", "0.2", "-seed", "3"},
			fp:   legacyFingerprint{Trials: 60, MaxDead: 0.2, DeadSteps: 2, MaxLoss: 0.5, CommRange: 6000, Infer: true, InferPD: 0.9},
			points: `{
				"infer/0": {"Precision": 0, "Recall": 1, "MeanTTD": 0, "InferredFrac": 0.007222222222222222,
					"PDeliverHat": 0.9006538661131293, "TruthProb": 0.7455405214099956,
					"InferredProb": 0.7416468200597429, "AbsDiff": 0.0038937013502526874},
				"infer/1": {"Precision": 0.9485396383866481, "Recall": 1, "MeanTTD": 2.2536656891495603,
					"InferredFrac": 0.09986111111111111, "PDeliverHat": 0.9009118494569412,
					"TruthProb": 0.6965579673165003, "InferredProb": 0.6921385330757631, "AbsDiff": 0.004419434240737208},
				"infer/2": {"Precision": 0.9703903095558546, "Recall": 1, "MeanTTD": 2.2045769764216367,
					"InferredFrac": 0.2063888888888889, "PDeliverHat": 0.9005988645804486,
					"TruthProb": 0.6290048675546979, "InferredProb": 0.6236339535469795, "AbsDiff": 0.005370914007718386}}`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fresh bytes.Buffer
			if err := run(tc.args, &fresh); err != nil {
				t.Fatal(err)
			}
			tc.fp.Params = detect.Defaults()
			tc.fp.Loss = loss
			fp, err := checkpoint.Fingerprint("gbd-faults", tc.fp, 3)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(map[string]any{
				"version": checkpoint.Version, "fingerprint": fp, "points": json.RawMessage(tc.points),
			})
			if err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(t.TempDir(), "legacy.ckpt")
			if err := os.WriteFile(ckpt, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			before := obs.Default.Snapshot().Counters["sweep.items"]
			var resumed bytes.Buffer
			if err := run(append(append([]string{}, tc.args...), "-checkpoint", ckpt, "-resume"), &resumed); err != nil {
				t.Fatal(err)
			}
			if after := obs.Default.Snapshot().Counters["sweep.items"]; after != before {
				t.Errorf("legacy checkpoint points re-ran: sweep.items %d -> %d", before, after)
			}
			if resumed.String() != fresh.String() {
				t.Errorf("legacy checkpoint resumed to\n%s\nfresh run printed\n%s", resumed.String(), fresh.String())
			}
		})
	}
}
