package obs

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestSessionWritesValidManifest(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	args := []string{
		"-metrics-out", filepath.Join(dir, "manifest.json"),
		"-pprof", filepath.Join(dir, "prof"),
		"-trace", filepath.Join(dir, "trace.out"),
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sess, err := f.Start("obs-test", args)
	if err != nil {
		t.Fatal(err)
	}
	Default.Counter("obs.test.events").Add(2)
	sess.SetParams(map[string]int{"n": 120})
	sess.SetSeed(42)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateManifestJSON(data); err != nil {
		t.Errorf("manifest invalid: %v", err)
	}
	for _, p := range []string{"prof.cpu.pprof", "prof.heap.pprof", "trace.out"} {
		st, err := os.Stat(filepath.Join(dir, p))
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestSessionWithoutFlagsIsNoop(t *testing.T) {
	f := &Flags{}
	sess, err := f.Start("noop", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("noop close: %v", err)
	}
}

func TestValidateManifestJSONRejects(t *testing.T) {
	cases := map[string]string{
		"not json":          "{",
		"empty object":      "{}",
		"wrong version":     `{"version": 99, "binary": "x", "go_version": "go", "goos": "a", "goarch": "b", "num_cpu": 1, "gomaxprocs": 1, "start": "2026-01-01T00:00:00Z", "status": "ok"}`,
		"missing binary":    `{"version": 2, "go_version": "go", "goos": "a", "goarch": "b", "num_cpu": 1, "gomaxprocs": 1, "start": "2026-01-01T00:00:00Z", "status": "ok"}`,
		"zero start time":   `{"version": 2, "binary": "x", "go_version": "go", "goos": "a", "goarch": "b", "num_cpu": 1, "gomaxprocs": 1, "status": "ok"}`,
		"missing status":    `{"version": 2, "binary": "x", "go_version": "go", "goos": "a", "goarch": "b", "num_cpu": 1, "gomaxprocs": 1, "start": "2026-01-01T00:00:00Z"}`,
		"bad status":        `{"version": 2, "binary": "x", "go_version": "go", "goos": "a", "goarch": "b", "num_cpu": 1, "gomaxprocs": 1, "start": "2026-01-01T00:00:00Z", "status": "crashed"}`,
		"failed sans error": `{"version": 2, "binary": "x", "go_version": "go", "goos": "a", "goarch": "b", "num_cpu": 1, "gomaxprocs": 1, "start": "2026-01-01T00:00:00Z", "status": "failed"}`,
	}
	for name, data := range cases {
		if err := ValidateManifestJSON([]byte(data)); err == nil {
			t.Errorf("%s: should be rejected", name)
		}
	}
	oks := map[string]string{
		"ok": `{"version": 2, "binary": "x", "go_version": "go1.22", "goos": "linux", "goarch": "amd64",
		        "num_cpu": 4, "gomaxprocs": 4, "start": "2026-01-01T00:00:00Z",
		        "wall_seconds": 0.5, "cpu_seconds": 0.4, "status": "ok", "metrics": {}}`,
		"interrupted": `{"version": 2, "binary": "x", "go_version": "go1.22", "goos": "linux", "goarch": "amd64",
		        "num_cpu": 4, "gomaxprocs": 4, "start": "2026-01-01T00:00:00Z",
		        "wall_seconds": 0.5, "cpu_seconds": 0.4, "status": "interrupted",
		        "error": "interrupted by interrupt", "failed_point": "fig8/3", "metrics": {}}`,
	}
	for name, data := range oks {
		if err := ValidateManifestJSON([]byte(data)); err != nil {
			t.Errorf("%s: valid manifest rejected: %v", name, err)
		}
	}
}

func TestRecordOutcomeStatuses(t *testing.T) {
	write := func(t *testing.T, setup func(*Session)) Manifest {
		t.Helper()
		path := filepath.Join(t.TempDir(), "manifest.json")
		sess, err := (&Flags{MetricsOut: path}).Start("obs-test", nil)
		if err != nil {
			t.Fatal(err)
		}
		setup(sess)
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateManifestJSON(data); err != nil {
			t.Fatalf("manifest invalid: %v", err)
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	if m := write(t, func(s *Session) {}); m.Status != StatusOK {
		t.Errorf("no outcome: status %q, want ok", m.Status)
	}
	if m := write(t, func(s *Session) { s.RecordOutcome(nil) }); m.Status != StatusOK {
		t.Errorf("nil outcome: status %q, want ok", m.Status)
	}
	m := write(t, func(s *Session) {
		s.SetFailedPoint("fig9a/2")
		s.RecordOutcome(errors.New("boom"))
	})
	if m.Status != StatusFailed || m.Error != "boom" || m.FailedPoint != "fig9a/2" {
		t.Errorf("failure outcome: got status=%q error=%q point=%q", m.Status, m.Error, m.FailedPoint)
	}
	m = write(t, func(s *Session) { s.RecordOutcome(context.Canceled) })
	if m.Status != StatusInterrupted {
		t.Errorf("cancelled outcome: status %q, want interrupted", m.Status)
	}
	m = write(t, func(s *Session) {
		s.markInterrupted("interrupt")
		s.RecordOutcome(errors.New("sweep aborted"))
	})
	if m.Status != StatusInterrupted {
		t.Errorf("signal outcome: status %q, want interrupted", m.Status)
	}
}

func TestSignalContextCancelIsClean(t *testing.T) {
	sess, err := (&Flags{}).Start("obs-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := sess.SignalContext(context.Background())
	if ctx.Err() != nil {
		t.Fatalf("fresh signal context already cancelled: %v", ctx.Err())
	}
	cancel()
	cancel() // must be idempotent
	<-ctx.Done()
	sess.mu.Lock()
	interrupted := sess.interrupted
	sess.mu.Unlock()
	if interrupted {
		t.Error("plain cancel must not mark the session interrupted")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintDiscriminates(t *testing.T) {
	base := Fingerprint("gbd-experiments", `{"trials":1000}`, 42)
	if base == "" || len(base) != 64 {
		t.Fatalf("fingerprint %q, want 64 hex chars", base)
	}
	if Fingerprint("gbd-experiments", `{"trials":1000}`, 42) != base {
		t.Error("fingerprint not deterministic")
	}
	for name, fp := range map[string]string{
		"different binary": Fingerprint("gbd-faults", `{"trials":1000}`, 42),
		"different params": Fingerprint("gbd-experiments", `{"trials":2000}`, 42),
		"different seed":   Fingerprint("gbd-experiments", `{"trials":1000}`, 43),
	} {
		if fp == base {
			t.Errorf("%s: fingerprint collides with base", name)
		}
	}
}

// TestFingerprintAllocs bounds Fingerprint's allocations: the hasher, the
// formatted fields and the hex digest come to 7 (8 under the race
// detector). Re-reading the build info on every call, which serve's
// per-request cache key pays, doubles the count.
func TestFingerprintAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		Fingerprint("gbd-experiments", `{"trials":1000}`, 42)
	})
	if allocs > 10 {
		t.Errorf("Fingerprint allocates %v times per call, want <= 10", allocs)
	}
}
