package main

import (
	"testing"

	"github.com/groupdetect/gbd/internal/clitest"
)

// TestFlagsPinned pins every flag's name, kind and default value, so a
// change to how the flags are declared cannot add, rename, drop or
// re-default one unnoticed. The help sentences are not pinned.
func TestFlagsPinned(t *testing.T) {
	const want = `-config string
-confine string "reject"
-exposure float
-false-alarm float
-k int 5
-m int 20
-max-turn float 45
-metrics-out string
-n int 120
-pd float 0.9
-pprof string
-rng string
-rs float 1000
-seed int 1
-side float 32000
-t duration 1m0s
-trace string
-trials int 10000
-v float 10
-walk
-workers int
`
	if got := clitest.Flags(t, run); got != want {
		t.Errorf("flags changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
