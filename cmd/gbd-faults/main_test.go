package main

import (
	"strings"
	"testing"
)

func TestDeadSweepOutput(t *testing.T) {
	var sb strings.Builder
	args := []string{"-trials", "300", "-dead-steps", "2", "-max-dead", "0.4"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"dead_frac", "analysis", "sim", "max |analysis - sim|", "monotone non-increasing: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Title + header + 3 sweep rows + 2 summary lines.
	if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 7 {
		t.Errorf("line count = %d, want 7:\n%s", lines, out)
	}
}

func TestLossSweepOutput(t *testing.T) {
	var sb strings.Builder
	args := []string{"-trials", "200", "-loss-sweep", "-dead-steps", "2", "-max-loss", "0.4"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"hop_loss", "arrived_frac", "rerouted", "6000 m radios"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScenarioOutput(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-trials", "200", "-hazard", "0.05"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "battery hazard") || !strings.Contains(sb.String(), "mean alive fraction") {
		t.Errorf("hazard output unexpected:\n%s", sb.String())
	}
	sb.Reset()
	if err := run([]string{"-trials", "200", "-blob-radius", "8000"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "correlated blob failure") {
		t.Errorf("blob output unexpected:\n%s", sb.String())
	}
}

func TestInferSweepOutput(t *testing.T) {
	var sb strings.Builder
	args := []string{"-trials", "150", "-infer", "-max-dead", "0.2", "-dead-steps", "1",
		"-min-precision", "0.9", "-min-recall", "0.9"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"closed-loop inference", "precision", "recall", "mean_ttd", "p_del_hat",
		"max |truth - inferred| detection gap", "accuracy gate @ dead_frac 0.20",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Title + header + 2 sweep rows + gap summary + gate line.
	if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 6 {
		t.Errorf("line count = %d, want 6:\n%s", lines, out)
	}
}

func TestInferSweepGateFails(t *testing.T) {
	// A precision bar the run misses (1, against about 0.98 measured) must
	// surface as a nonzero-exit error so CI can gate on inference accuracy.
	// A bar above 1 is refused as a flag value before the gate is reached.
	var sb strings.Builder
	args := []string{"-trials", "100", "-infer", "-max-dead", "0.2", "-dead-steps", "1",
		"-min-precision", "1"}
	err := run(args, &sb)
	if err == nil || !strings.Contains(err.Error(), "precision") {
		t.Fatalf("err = %v, want precision gate failure", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-trials", "0"},
		{"-n", "-1"},
		{"-unknown"},
		{"-dead-steps", "0"},
		{"-max-dead", "1.5"},
		{"-loss-sweep", "-max-loss", "1"},
		{"-loss-sweep", "-comm-range", "-5"},
		{"-retries", "-1", "-loss-sweep"},
		{"-point-retries", "-1"},
		{"-sweep-workers", "-1"},
		{"-hop-retries", "-1", "-loss-sweep"},
		{"-infer", "-p-deliver", "0"},
		{"-infer", "-p-deliver", "1.5"},
		{"-infer", "-dead-steps", "0"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
