package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestNumericFlagRanges feeds every numeric flag NaN, ±Inf, 0, −1, 1e308
// and 1e-300 through run against one live worker. Each run must either
// refuse with an error that names the flag (or, for -values, the
// parameter the worker refused), or run the one-point campaign it was
// given and print its row. No flag here sizes a goroutine pool.
func TestNumericFlagRanges(t *testing.T) {
	values := []string{"NaN", "+Inf", "-Inf", "0", "-1", "1e308", "1e-300"}
	worker := newWorker(t).URL
	cases := []struct {
		flag  string
		names []string // what the error may name besides the flag
	}{
		{flag: "values", names: []string{"n = ", "N = "}},
		{flag: "trials"},
		{flag: "seed"},
		{flag: "shard-size"},
		{flag: "retries"},
		{flag: "retry-backoff"},
		{flag: "stall-timeout"},
		{flag: "hedges"},
		{flag: "circuit-threshold"},
		{flag: "circuit-cooldown"},
		{flag: "chaos-seed"},
		{flag: "chaos-drop-every"},
		{flag: "chaos-503-every"},
		{flag: "chaos-truncate-every"},
		{flag: "chaos-stall-every"},
		{flag: "chaos-stall-duration"},
	}
	for _, tc := range cases {
		for _, v := range values {
			args := []string{"-workers", worker, "-values", "60", "-trials", "0",
				"-ledger", filepath.Join(t.TempDir(), "ledger.json"), "-" + tc.flag, v}
			out, err := runWithin(t, 30*time.Second, args)
			if err != nil {
				if !namesAny(err.Error(), append([]string{tc.flag}, tc.names...)) {
					t.Errorf("run(-%s %s) = %v: the error names neither the flag nor its value", tc.flag, v, err)
				}
				continue
			}
			if !strings.Contains(out, `"index":0`) {
				t.Errorf("run(-%s %s) succeeded without the campaign's row:\n%s", tc.flag, v, out)
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
