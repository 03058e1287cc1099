// Package clitest pins a command's stdout as a golden: each flag set's
// output is hashed with SHA-256 and compared to a committed digest, the
// way internal/serve's golden corpus pins response bytes, or searched for
// the literal lines a CI step quotes. A refactor of a command's flag
// handling or rendering must keep every digest and every literal.
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

// Literal is one invocation and the lines its stdout must contain
// verbatim: the printed figures that a CI step or a document quotes,
// pinned where `go test ./...` sees them.
type Literal struct {
	Args []string
	Want []string
}

// CheckLiterals runs every case through run and fails on each wanted
// substring its stdout lacks, printing the output so a deliberate change
// can be reviewed.
func CheckLiterals(t *testing.T, cases []Literal, run func(args []string) (string, error)) {
	t.Helper()
	for _, tc := range cases {
		out, err := run(tc.Args)
		if err != nil {
			t.Errorf("%s: %v", strings.Join(tc.Args, " "), err)
			continue
		}
		for _, want := range tc.Want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: stdout lacks %q; output:\n%s", strings.Join(tc.Args, " "), want, out)
			}
		}
	}
}

// Flags runs a command with -h and returns its flag set as one
// "-name type default" line per flag, read from the usage text that
// flag.PrintDefaults writes to os.Stderr. The usage sentences are
// dropped, so a pin on the result holds each flag's name, kind and
// default while leaving the help wording free to change. A flag whose
// default is its type's zero value has no default column.
func Flags(t testing.TB, run func(args []string) error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		if _, err := io.Copy(&buf, r); err != nil {
			t.Error(err)
		}
		done <- buf.Bytes()
	}()
	runErr := run([]string{"-h"})
	os.Stderr = saved
	w.Close()
	usage := string(<-done)
	r.Close()
	if runErr == nil {
		t.Fatal("-h: want flag.ErrHelp, got nil")
	}
	var entries []string
	for _, line := range strings.Split(usage, "\n") {
		switch {
		case strings.HasPrefix(line, "  -"):
			entries = append(entries, line[2:])
		case len(entries) > 0:
			entries[len(entries)-1] += "\n" + line
		}
	}
	var out strings.Builder
	for _, e := range entries {
		head, _, _ := strings.Cut(e, "\n")
		head, _, _ = strings.Cut(head, "\t")
		out.WriteString(head)
		if i := strings.LastIndex(e, " (default "); i >= 0 && strings.HasSuffix(strings.TrimRight(e, "\n"), ")") {
			out.WriteString(" " + strings.TrimSuffix(strings.TrimRight(e, "\n")[i+len(" (default "):], ")"))
		}
		out.WriteString("\n")
	}
	return out.String()
}
