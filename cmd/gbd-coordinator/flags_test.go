package main

import (
	"io"
	"testing"

	"github.com/groupdetect/gbd/internal/clitest"
)

// TestFlagsPinned pins every flag's name, kind and default value, so a
// change to how the flags are declared cannot add, rename, drop or
// re-default one unnoticed. The help sentences are not pinned.
func TestFlagsPinned(t *testing.T) {
	const want = `-axis string "n"
-chaos-503-every int
-chaos-drop-every int
-chaos-seed int
-chaos-stall-duration duration 2s
-chaos-stall-every int
-chaos-truncate-every int
-circuit-cooldown duration 5s
-circuit-threshold int 3
-hedges int 1
-keep-going
-ledger string
-metrics-out string
-out string "-"
-pprof string
-report string
-resume
-retries int 6
-retry-backoff duration 100ms
-rng string
-scenario string "{}"
-seed int 1
-shard-size int 8
-stall-timeout duration 30s
-trace string
-trials int
-v
-values string
-workers string
`
	if got := clitest.Flags(t, func(args []string) error { return run(args, io.Discard) }); got != want {
		t.Errorf("flags changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
