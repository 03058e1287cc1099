package main

import (
	"regexp"
	"testing"

	"github.com/groupdetect/gbd/internal/clitest"
)

// wallClock matches the one line of gbd-sim's stdout that depends on the
// host: the elapsed time of the campaign.
var wallClock = regexp.MustCompile(`(?m)^simulation: (\d+) trials in .*$`)

// TestStdoutGolden pins gbd-sim's stdout for three flag sets (the elapsed
// time masked): the default scenario, a philox run at V = 4, and a
// random-walk target with false alarms and no border confinement.
func TestStdoutGolden(t *testing.T) {
	clitest.Check(t, []clitest.Case{
		{Args: []string{"-trials", "500"}, Sum: "cad81b5023b719665eabef6cbb6203cfb302e61c782dd249035c8d2af11ef9e7"},
		{Args: []string{"-n", "240", "-v", "4", "-trials", "300", "-rng", "philox", "-seed", "7"}, Sum: "57bff1e45f0254caa1a915c3aa69aeff46f0c339d02cdcea05f81f20c5f51070"},
		{Args: []string{"-trials", "200", "-walk", "-max-turn", "30", "-false-alarm", "0.001", "-confine", "none"}, Sum: "f2f987a9c34a7d4063b48accd4c182d4547b8b27ec7bdd0eadc02d58ee6d1c98"},
	}, func(args []string) (string, error) {
		out, err := clitest.Stdout(t, func() error { return run(args) })
		return wallClock.ReplaceAllString(out, "simulation: $1 trials in <elapsed>"), err
	})
}

// TestCountPathLiterals pins the count-path lines of a 20 000-trial
// campaign at N = 240, V = 10 under both schemes: the figures the CI
// "Plain campaign literals" step greps, so a change to either trial
// stream shows under `go test ./...` too.
func TestCountPathLiterals(t *testing.T) {
	args := []string{"-n", "240", "-v", "10", "-trials", "20000", "-seed", "1"}
	clitest.CheckLiterals(t, []clitest.Literal{
		{Args: args, Want: []string{
			"detection probability: 0.9798 ",
			"mean reports per 20 periods: 18.247 (max observed 57)",
		}},
		{Args: append([]string{"-rng", "philox"}, args...), Want: []string{
			"detection probability: 0.9785 ",
			"mean reports per 20 periods: 18.271 (max observed 56)",
		}},
	}, func(args []string) (string, error) {
		return clitest.Stdout(t, func() error { return run(args) })
	})
}
