// Package clitest pins a command's stdout as a golden: each flag set's
// output is hashed with SHA-256 and compared to a committed digest, the
// way internal/serve's golden corpus pins response bytes. A refactor of a
// command's flag handling or rendering must keep every digest.
package clitest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"testing"
)

// Case is one invocation and the SHA-256 of the stdout it must print.
type Case struct {
	Args []string
	Sum  string
}

// Stdout runs fn with os.Stdout redirected into a pipe and returns what
// fn wrote there, for commands that print to os.Stdout directly.
func Stdout(t testing.TB, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		if _, err := io.Copy(&buf, r); err != nil {
			t.Error(err)
		}
		done <- buf.Bytes()
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	out := <-done
	r.Close()
	return string(out), runErr
}

// Check runs every case through run and fails on a digest mismatch,
// printing the output and its digest so a deliberate change can be
// reviewed and re-pinned.
func Check(t *testing.T, cases []Case, run func(args []string) (string, error)) {
	t.Helper()
	for _, tc := range cases {
		out, err := run(tc.Args)
		if err != nil {
			t.Errorf("%s: %v", strings.Join(tc.Args, " "), err)
			continue
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != tc.Sum {
			t.Errorf("%s: stdout sha256 = %s, want %s; output:\n%s",
				strings.Join(tc.Args, " "), got, tc.Sum, out)
		}
	}
}
