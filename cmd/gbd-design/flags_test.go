package main

import (
	"testing"

	"github.com/groupdetect/gbd/internal/clitest"
)

// TestFlagsPinned pins every flag's name, kind and default value, so a
// change to how the flags are declared cannot add, rename, drop or
// re-default one unnoticed. The help sentences are not pinned.
func TestFlagsPinned(t *testing.T) {
	const want = `-budget float 0.01
-classes string
-comm float 6000
-fa float 0.0001
-grid string "32x32"
-hop duration 10s
-horizon int 1440
-m int 20
-metrics-out string
-min-gain float -Inf
-n-max int 1000
-pd float 0.9
-place
-place-n int 120
-place-out string
-place-trials int 2000
-pprof string
-rng string
-rs float 1000
-seed int 1
-side float 32000
-t duration 1m0s
-target float 0.9
-trace string
-v float 10
-workers int
`
	if got := clitest.Flags(t, run); got != want {
		t.Errorf("flags changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
