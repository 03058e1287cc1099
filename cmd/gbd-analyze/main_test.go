package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/groupdetect/gbd/internal/detect"
)

func TestRunMethods(t *testing.T) {
	cases := [][]string{
		{"-n", "60"},
		{"-n", "60", "-method", "ms-matrix", "-gh", "3", "-g", "3"},
		{"-n", "60", "-method", "s", "-g", "4"},
		{"-n", "60", "-method", "s-literal", "-g", "2"},
		{"-n", "60", "-method", "single"},
		{"-n", "60", "-raw", "-verbose"},
		{"-n", "60", "-h-nodes", "2"},
		{"-n", "60", "-v", "4"},
		{"-n", "60", "-m", "2"}, // M <= ms: small-window evaluator
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-n", "-5"},                           // invalid params
		{"-method", "bogus"},                   // unknown method
		{"-m", "2", "-method", "s", "-g", "4"}, // S-approach needs M > ms
		{"-accuracy", "1.5"},                   // invalid accuracy target
		{"-badflag"},                           // flag parse error
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRunConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	// Save a scenario, then load it back.
	if err := run([]string{"-n", "60", "-save-config", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", path}); err != nil {
		t.Errorf("run with config: %v", err)
	}
	if err := run([]string{"-config", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing config should fail")
	}
	if err := run([]string{"-n", "60", "-save-config", filepath.Join(dir, "no", "dir", "x.json")}); err == nil {
		t.Error("unwritable save path should fail")
	}
}

// TestTinySpeedExitsWithError: at -v 1e-300 ms = ⌈2Rs/(V·t)⌉ overflows an
// int. The command must exit 1 with a named parameter error instead of
// printing a wrapped ms and panicking. The test binary re-runs itself as
// the command, so the exit status and stderr are main's own.
func TestTinySpeedExitsWithError(t *testing.T) {
	if os.Getenv("GBD_ANALYZE_RUN_MAIN") == "1" {
		os.Args = []string{"gbd-analyze", "-v", "1e-300"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestTinySpeedExitsWithError$")
	cmd.Env = append(os.Environ(), "GBD_ANALYZE_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if msg := stderr.String(); !strings.HasPrefix(msg, "gbd-analyze: ms = ") || !strings.Contains(msg, "does not fit an int") || strings.Count(msg, "\n") != 1 {
		t.Errorf("stderr = %q, want one named ms error and no panic", msg)
	}
	if err := run([]string{"-v", "1e-300"}); !errors.Is(err, detect.ErrParams) {
		t.Errorf("run: %v, want detect.ErrParams", err)
	}
}
