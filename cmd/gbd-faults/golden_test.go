package main

import (
	"strings"
	"testing"

	"github.com/groupdetect/gbd/internal/clitest"
)

// TestStdoutGolden pins gbd-faults' stdout for the dead-fraction sweep,
// the per-hop loss sweep, the closed-loop failure inferencer, and the
// battery-hazard and blob scenarios under both RNG schemes.
func TestStdoutGolden(t *testing.T) {
	clitest.Check(t, []clitest.Case{
		{Args: []string{"-trials", "300", "-dead-steps", "2", "-max-dead", "0.4"}, Sum: "ad78a072c43c4fa1ca11d70f311b281824204966b8ced2ba7f97344d8c5c7f74"},
		{Args: []string{"-trials", "200", "-loss-sweep", "-dead-steps", "2", "-max-loss", "0.4"}, Sum: "4eb48206067f0ad04c6946fe62ef69643aa15948222cfae1ba99d4dc77b1ca04"},
		{Args: []string{"-trials", "200", "-infer", "-max-dead", "0.2", "-dead-steps", "1"}, Sum: "1256c0dd80f956523d9476764324696a16e05fc199505ccb61061a0c1c8a436a"},
		{Args: []string{"-trials", "200", "-hazard", "0.05"}, Sum: "350373315cb0ecb40b97ba2a1a49bb9e26d89be0b09ba8d5a6271a4312bf4a98"},
		{Args: []string{"-trials", "200", "-blob-radius", "8000"}, Sum: "d2b94134774eb08f1447aa967ab54cd85743916c963f31ee6534a34cfc101b42"},
		{Args: []string{"-trials", "200", "-hazard", "0.05", "-rng", "philox"}, Sum: "9ab2ddd8f1b969fc5e082da9584f068619c71df69632678c2e5d698e103ce5b3"},
		{Args: []string{"-trials", "200", "-blob-radius", "8000", "-rng", "philox"}, Sum: "b5a822b92d516b5e46f96fb21197467d35d92a918d95f73ac2a537f62e8e5af3"},
	}, func(args []string) (string, error) {
		var sb strings.Builder
		err := run(args, &sb)
		return sb.String(), err
	})
}
