package main

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestNumericFlagRanges feeds every numeric flag NaN, ±Inf, 0, −1, 1e308
// and 1e-300 through run. Each run must either refuse with an error that
// names the flag, or run the mode it was given: a nonzero value of a
// mode's own flag must show in that mode's output, never fall through to
// another mode or switch a gate off. Flags that size trial counts or
// worker pools only parse these values or refuse them; none of them can
// start more than a few workers here.
func TestNumericFlagRanges(t *testing.T) {
	values := []string{"NaN", "+Inf", "-Inf", "0", "-1", "1e308", "1e-300"}
	infer := []string{"-infer", "-max-dead", "0.2", "-dead-steps", "1"}
	cases := []struct {
		flag string
		mode []string // the flags that select the mode reading flag
		ran  string   // what a run at a nonzero value must print
		// names: what the error must contain, when not the flag itself
		// (the scenario flags are refused by detect.Params.Validate,
		// which names its fields).
		names []string
	}{
		{flag: "n", names: []string{"N = "}},
		{flag: "side", names: []string{"FieldSide", "field side"}},
		{flag: "rs", names: []string{"Rs = ", "sensing diameter"}},
		{flag: "v", names: []string{"V = ", "ms = "}},
		{flag: "t", names: []string{"T = "}},
		{flag: "pd", names: []string{"Pd = "}},
		{flag: "m", names: []string{"M = "}},
		{flag: "k", names: []string{"K = "}},
		{flag: "trials"},
		{flag: "seed"},
		{flag: "workers"},
		{flag: "sweep-workers"},
		{flag: "retries"},
		{flag: "point-retries"},
		{flag: "retry-backoff"},
		{flag: "point-timeout"},
		{flag: "max-dead", ran: "degradation curve"},
		{flag: "dead-steps", ran: "degradation curve"},
		{flag: "hazard", ran: "scenario: battery hazard"},
		{flag: "blob-radius", ran: "scenario: correlated blob failure"},
		{flag: "p-deliver", mode: infer, ran: "closed-loop inference"},
		{flag: "min-precision", mode: infer, ran: "accuracy gate"},
		{flag: "min-recall", mode: infer, ran: "accuracy gate"},
		{flag: "max-loss", mode: []string{"-loss-sweep"}, ran: "loss degradation curve"},
		{flag: "comm-range", mode: []string{"-loss-sweep"}, ran: "loss degradation curve"},
		{flag: "hop-retries", mode: []string{"-loss-sweep"}, ran: "loss degradation curve"},
		{flag: "per-hop", mode: []string{"-loss-sweep"}, ran: "loss degradation curve"},
		{flag: "backoff", mode: []string{"-loss-sweep"}, ran: "loss degradation curve"},
		{flag: "budget", mode: []string{"-loss-sweep"}, ran: "loss degradation curve"},
	}
	for _, tc := range cases {
		for _, v := range values {
			args := append([]string{"-trials", "20", "-workers", "1", "-dead-steps", "2"}, tc.mode...)
			args = append(args, "-"+tc.flag, v)
			out, err := runWithin(t, 30*time.Second, args)
			if err != nil {
				if !namesAny(err.Error(), append([]string{tc.flag}, tc.names...)) {
					t.Errorf("run(%v) = %v: the error names neither the flag nor its value", args, err)
				}
				continue
			}
			if tc.ran != "" && v != "0" && !strings.Contains(out, tc.ran) {
				t.Errorf("run(%v) succeeded without %q in its output:\n%s", args, tc.ran, out)
			}
		}
	}
}

func namesAny(msg string, names []string) bool {
	for _, n := range names {
		if strings.Contains(msg, n) {
			return true
		}
	}
	return false
}

// runWithin runs the command and fails the test if it does not return
// within d.
func runWithin(t *testing.T, d time.Duration, args []string) (string, error) {
	t.Helper()
	type result struct {
		out string
		err error
	}
	done := make(chan result, 1)
	go func() {
		var sb strings.Builder
		err := run(args, &sb)
		done <- result{sb.String(), err}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	select {
	case r := <-done:
		return r.out, r.err
	case <-ctx.Done():
		t.Fatalf("run(%v) did not return within %v", args, d)
		return "", nil
	}
}
