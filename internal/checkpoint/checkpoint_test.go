package checkpoint

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type point struct {
	V float64 `json:"v"`
	N int     `json:"n"`
}

func TestFingerprintDependsOnInputs(t *testing.T) {
	type params struct {
		Trials int
		Quick  bool
	}
	base, err := Fingerprint("gbd-experiments", params{Trials: 1000}, 42)
	if err != nil {
		t.Fatal(err)
	}
	same, err := Fingerprint("gbd-experiments", params{Trials: 1000}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if base != same {
		t.Error("fingerprint not deterministic")
	}
	for name, in := range map[string]struct {
		binary string
		p      params
		seed   int64
	}{
		"binary": {"gbd-faults", params{Trials: 1000}, 42},
		"params": {"gbd-experiments", params{Trials: 1000, Quick: true}, 42},
		"seed":   {"gbd-experiments", params{Trials: 1000}, 7},
	} {
		fp, err := Fingerprint(in.binary, in.p, in.seed)
		if err != nil {
			t.Fatal(err)
		}
		if fp == base {
			t.Errorf("changing %s did not change fingerprint", name)
		}
	}
	if _, err := Fingerprint("x", func() {}, 0); err == nil {
		t.Error("unmarshalable params should fail")
	}
}

func TestCreatePutResumeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	fp, err := Fingerprint("test", map[string]int{"n": 120}, 42)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]point{
		"fig9a/0": {V: 0.123456789012345, N: 60},
		"fig9a/1": {V: 0.9999999999999999, N: 120},
	}
	for k, v := range want {
		if err := st.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(want))
	}

	re, err := Resume(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		var got point
		ok, err := re.Get(k, &got)
		if err != nil || !ok {
			t.Fatalf("Get(%q) = %v, %v", k, ok, err)
		}
		if got != v {
			t.Errorf("Get(%q) = %+v, want %+v (float64 must round-trip exactly)", k, got, v)
		}
	}
	var missing point
	if ok, err := re.Get("fig9a/2", &missing); ok || err != nil {
		t.Errorf("Get of absent key = %v, %v; want false, nil", ok, err)
	}
}

func TestResumeRejects(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if _, err := Resume(path, "fp"); err == nil {
		t.Error("resume of missing file should fail")
	}

	st, err := Create(path, "fingerprint-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", point{V: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(path, "fingerprint-b"); !errors.Is(err, ErrFingerprint) {
		t.Errorf("stale fingerprint: err = %v, want ErrFingerprint", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(path, "fingerprint-a"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated file: err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejections(t *testing.T) {
	good, err := Encode("fp", map[string]json.RawMessage{"k": json.RawMessage(`{"v":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(good, "fp"); err != nil {
		t.Fatalf("good checkpoint rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"truncated":      good[:len(good)-20],
		"trailing data":  append(append([]byte{}, good...), []byte(`{"more": 1}`)...),
		"unknown field":  []byte(`{"version": 1, "fingerprint": "fp", "points": {}, "extra": 1}`),
		"wrong version":  []byte(`{"version": 99, "fingerprint": "fp", "points": {}}`),
		"no fingerprint": []byte(`{"version": 1, "points": {}}`),
		"not an object":  []byte(`[1, 2, 3]`),
	}
	for name, data := range cases {
		if _, err := Decode(data, "fp"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := Decode(good, "other"); !errors.Is(err, ErrFingerprint) {
		t.Errorf("mismatched fingerprint: err = %v, want ErrFingerprint", err)
	}
	// Empty wantFingerprint skips the identity check (inspection mode).
	if _, err := Decode(good, ""); err != nil {
		t.Errorf("inspection decode: %v", err)
	}
}

func TestPutPersistsAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	st, err := Create(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := st.Put("k", point{N: i}); err != nil {
			t.Fatal(err)
		}
		// After every Put the on-disk file is a complete, valid checkpoint
		// and no temp files linger.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := Decode(data, "fp")
		if err != nil {
			t.Fatalf("after put %d: %v", i, err)
		}
		var got point
		if err := json.Unmarshal(pts["k"], &got); err != nil || got.N != i {
			t.Fatalf("after put %d: read back %+v, %v", i, got, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestStoreConcurrentPuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	st, err := Create(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				key := strings.Repeat("x", w+1)
				if err := st.Put(key, point{N: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	re, err := Resume(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 8 {
		t.Errorf("resumed %d keys, want 8", re.Len())
	}
}

// TestOpen: no path is no checkpoint (and a nil Store flushes as a
// no-op), resume needs a path, and otherwise Open creates or resumes.
func TestOpen(t *testing.T) {
	s, err := Open("", "fp", false)
	if err != nil || s != nil {
		t.Fatalf("Open without a path = %v, %v; want nil, nil", s, err)
	}
	if err := s.Flush(); err != nil {
		t.Errorf("nil Store Flush: %v", err)
	}
	if _, err := Open("", "fp", true); err == nil || err.Error() != "-resume requires -checkpoint" {
		t.Errorf("resume without a path: err = %v", err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := Open(path, "fp", true); err == nil {
		t.Error("resuming a missing checkpoint should fail")
	}
	s, err = Open(path, "fp", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a/0", point{V: 1}); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path, "fp", true)
	if err != nil || s.Len() != 1 {
		t.Fatalf("resumed %v points, err %v; want 1", s.Len(), err)
	}
	if _, err := Open(path, "other", true); !errors.Is(err, ErrFingerprint) {
		t.Errorf("resuming another campaign: err = %v, want ErrFingerprint", err)
	}
}
