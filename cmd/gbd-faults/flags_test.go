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
	const want = `-backoff duration 5s
-blob-radius float
-budget duration
-checkpoint string
-comm-range float 6000
-dead-steps int 10
-hazard float
-hop-retries int 2
-infer
-k int 5
-keep-going
-loss-sweep
-m int 20
-max-dead float 0.5
-max-loss float 0.5
-metrics-out string
-min-precision float
-min-recall float
-n int 120
-p-deliver float 0.9
-pd float 0.9
-per-hop duration 10s
-point-timeout duration
-pprof string
-resume
-retries int
-retry-backoff duration 100ms
-rng string
-rs float 1000
-seed int 1
-side float 32000
-sweep-workers int 1
-t duration 1m0s
-trace string
-trials int 2000
-v float 10
-workers int
`
	if got := clitest.Flags(t, func(args []string) error { return run(args, io.Discard) }); got != want {
		t.Errorf("flags changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
