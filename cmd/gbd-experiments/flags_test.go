package main

import (
	"testing"

	"github.com/groupdetect/gbd/internal/clitest"
)

// TestFlagsPinned pins every flag's name, kind and default value, so a
// change to how the flags are declared cannot add, rename, drop or
// re-default one unnoticed. The help sentences are not pinned.
func TestFlagsPinned(t *testing.T) {
	const want = `-checkpoint string
-csv
-exp string "all"
-metrics-out string
-out string
-plot
-point-timeout duration
-pprof string
-quick
-resume
-retries int
-retry-backoff duration 100ms
-rng string
-seed int 1
-sweep-workers int
-trace string
-trials int
`
	if got := clitest.Flags(t, run); got != want {
		t.Errorf("flags changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
