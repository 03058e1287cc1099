package main

import (
	"testing"

	"github.com/groupdetect/gbd/internal/clitest"
)

// TestStdoutGolden pins gbd-analyze's stdout for three flag sets: the
// default scenario, the matrix evaluator with the full distribution, and
// the S-approach with the distinct-nodes extension.
func TestStdoutGolden(t *testing.T) {
	clitest.Check(t, []clitest.Case{
		{Args: nil, Sum: "7dcc5ad5fc39ad78281791652af2dab4772043de473a0665cd80b96eab55a3ca"},
		{Args: []string{"-n", "240", "-v", "4", "-method", "ms-matrix", "-verbose"}, Sum: "88cf33eec42d095aba91c85ed72661fcc71db6c2aad26e3121b3323b84882206"},
		{Args: []string{"-n", "100", "-k", "4", "-method", "s", "-h-nodes", "2"}, Sum: "60519f9757cafefbe6ec28d583dbca9224ba4e929dbffdff21ce6d19b4644126"},
	}, func(args []string) (string, error) {
		return clitest.Stdout(t, func() error { return run(args) })
	})
}
