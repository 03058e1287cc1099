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
	const want = `-addr string "127.0.0.1:8080"
-batch-max-items int 1024
-cache-entries int 1024
-drain-timeout duration 30s
-max-sweep-points int 512
-max-trials int 200000
-metrics-out string
-peer-cooldown duration 2s
-peer-timeout duration 2s
-peers string
-point-timeout duration
-pprof string
-queue-depth int
-request-timeout duration 30s
-retries int
-retry-backoff duration 100ms
-rng string
-self string
-sweep-workers int 1
-trace string
-workers int
`
	if got := clitest.Flags(t, func(args []string) error { return run(args, io.Discard) }); got != want {
		t.Errorf("flags changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
