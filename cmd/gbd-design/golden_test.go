package main

import (
	"testing"

	"github.com/groupdetect/gbd/internal/clitest"
)

// TestStdoutGolden pins gbd-design's stdout for the sizing workflow and
// three placement flag sets. The sizing cases are the default flags and
// -target 0.99. Both take the K re-size branch: K is 5 at the
// provisional N = 120, then 6 at the default target's N = 163 and 7 at
// -target 0.99's N = 277, so each re-sizes N. The placement cases are a
// homogeneous budget, a two-class fleet under philox, and a slower
// target on a finer grid.
func TestStdoutGolden(t *testing.T) {
	clitest.Check(t, []clitest.Case{
		{Args: nil, Sum: "5da817e26d0f021453f742c25d77f851cf738976da7f04af29d83b376a27f8f1"},
		{Args: []string{"-target", "0.99"}, Sum: "1416fedcc95153b4aa12c667b8a4f3e374f73ba4de23d5e9a49195baf5d241c1"},
		{Args: []string{"-place", "-place-n", "20", "-grid", "8x8", "-place-trials", "150", "-seed", "1"}, Sum: "68a3cf52725f6c71b0c790d7e90ae128f914b1c12961cefc3bdafd2e667df3ae"},
		{Args: []string{"-place", "-classes", "10:1000:0.9,5:2000:0.7", "-grid", "8x8", "-place-trials", "200", "-rng", "philox"}, Sum: "32adb535fa6d5c0e59404ffe9afa20378ed96b817a92460af48b13a44699bc4a"},
		{Args: []string{"-place", "-place-n", "30", "-v", "4", "-grid", "10x10", "-place-trials", "300", "-rng", "philox", "-seed", "3"}, Sum: "f03ca39aa4f768ac7136eb75a1950e7540c6477d916c394fd8f9fa760263259c"},
	}, func(args []string) (string, error) {
		return clitest.Stdout(t, func() error { return run(args) })
	})
}

// TestPlacedLiterals pins the placed detection probability of the
// canonical placement solve (60 sensors, 16x16 grid, 500 trials, seed 1)
// under both schemes: the figures the CI "Placed layout golden" step
// greps, so a change to either trial stream shows under `go test ./...`
// too.
func TestPlacedLiterals(t *testing.T) {
	args := []string{"-place", "-place-n", "60", "-grid", "16x16", "-place-trials", "500", "-seed", "1", "-min-gain", "0"}
	clitest.CheckLiterals(t, []clitest.Literal{
		{Args: args, Want: []string{"placed P[detect] = 0.77 "}},
		{Args: append([]string{"-rng", "philox"}, args...), Want: []string{"placed P[detect] = 0.754 "}},
	}, func(args []string) (string, error) {
		return clitest.Stdout(t, func() error { return run(args) })
	})
}
