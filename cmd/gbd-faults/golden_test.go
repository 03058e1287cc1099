package main

import (
	"strings"
	"testing"

	"github.com/groupdetect/gbd/internal/clitest"
)

// TestStdoutGolden pins gbd-faults' stdout for three flag sets: the
// dead-fraction sweep, the per-hop loss sweep, and the closed-loop
// failure inferencer.
func TestStdoutGolden(t *testing.T) {
	clitest.Check(t, []clitest.Case{
		{Args: []string{"-trials", "300", "-dead-steps", "2", "-max-dead", "0.4"}, Sum: "ad78a072c43c4fa1ca11d70f311b281824204966b8ced2ba7f97344d8c5c7f74"},
		{Args: []string{"-trials", "200", "-loss-sweep", "-dead-steps", "2", "-max-loss", "0.4"}, Sum: "4eb48206067f0ad04c6946fe62ef69643aa15948222cfae1ba99d4dc77b1ca04"},
		{Args: []string{"-trials", "200", "-infer", "-max-dead", "0.2", "-dead-steps", "1"}, Sum: "1256c0dd80f956523d9476764324696a16e05fc199505ccb61061a0c1c8a436a"},
	}, func(args []string) (string, error) {
		var sb strings.Builder
		err := run(args, &sb)
		return sb.String(), err
	})
}
