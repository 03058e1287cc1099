package main

import (
	"testing"

	"github.com/groupdetect/gbd/internal/clitest"
)

// TestFlagsPinned pins every flag's name, kind and default value, so a
// change to how the flags are declared cannot add, rename, drop or
// re-default one unnoticed. The help sentences are not pinned.
func TestFlagsPinned(t *testing.T) {
	const want = `-accuracy float 0.99
-config string
-g int
-gh int
-h-nodes int
-k int 5
-m int 20
-method string "ms"
-metrics-out string
-n int 120
-pd float 0.9
-pprof string
-raw
-rs float 1000
-save-config string
-side float 32000
-t duration 1m0s
-trace string
-v float 10
-verbose
`
	if got := clitest.Flags(t, run); got != want {
		t.Errorf("flags changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
