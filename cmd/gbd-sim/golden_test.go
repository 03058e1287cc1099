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
		{Args: []string{"-n", "240", "-v", "4", "-trials", "300", "-rng", "philox", "-seed", "7"}, Sum: "883d87942994fcb639245bcdb5cd7c7929ec0fe8e5c5693c25b62885e0313fff"},
		{Args: []string{"-trials", "200", "-walk", "-max-turn", "30", "-false-alarm", "0.001", "-confine", "none"}, Sum: "f2f987a9c34a7d4063b48accd4c182d4547b8b27ec7bdd0eadc02d58ee6d1c98"},
	}, func(args []string) (string, error) {
		out, err := clitest.Stdout(t, func() error { return run(args) })
		return wallClock.ReplaceAllString(out, "simulation: $1 trials in <elapsed>"), err
	})
}
