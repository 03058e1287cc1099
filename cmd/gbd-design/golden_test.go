package main

import (
	"testing"

	"github.com/groupdetect/gbd/internal/clitest"
)

// TestStdoutGolden pins gbd-design's stdout for three placement flag
// sets: a homogeneous budget, a two-class fleet under philox, and a
// slower target on a finer grid. The sizing workflow without -place runs
// a fixed 4000-trial check, too slow for a golden.
func TestStdoutGolden(t *testing.T) {
	clitest.Check(t, []clitest.Case{
		{Args: []string{"-place", "-place-n", "20", "-grid", "8x8", "-place-trials", "150", "-seed", "1"}, Sum: "68a3cf52725f6c71b0c790d7e90ae128f914b1c12961cefc3bdafd2e667df3ae"},
		{Args: []string{"-place", "-classes", "10:1000:0.9,5:2000:0.7", "-grid", "8x8", "-place-trials", "200", "-rng", "philox"}, Sum: "32adb535fa6d5c0e59404ffe9afa20378ed96b817a92460af48b13a44699bc4a"},
		{Args: []string{"-place", "-place-n", "30", "-v", "4", "-grid", "10x10", "-place-trials", "300", "-rng", "philox", "-seed", "3"}, Sum: "f03ca39aa4f768ac7136eb75a1950e7540c6477d916c394fd8f9fa760263259c"},
	}, func(args []string) (string, error) {
		return clitest.Stdout(t, func() error { return run(args) })
	})
}
