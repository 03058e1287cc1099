// Package checkpoint persists completed sweep points of a long-running
// analysis or simulation campaign so an interrupted run can resume without
// repeating finished work (DESIGN.md §10). A checkpoint is a single JSON
// file holding a schema version, a run fingerprint, and a map from point
// key to the point's JSON-encoded result. Every Put rewrites the file
// atomically (write-temp-then-rename in the same directory), so a crash or
// SIGKILL at any instant leaves either the previous or the new complete
// checkpoint on disk — never a torn one.
//
// The fingerprint binds a checkpoint to the exact campaign that wrote it:
// binary name, canonical parameter JSON, seed, and the build identity from
// the obs manifest machinery (VCS revision, dirty flag, Go version). A
// resumed run with any of those changed refuses the checkpoint instead of
// silently merging stale results; encoding/json round-trips float64 values
// exactly, so restored points reproduce the original output byte for byte.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/groupdetect/gbd/internal/obs"
)

// Version identifies the checkpoint schema; Decode rejects files written
// by any other version.
const Version = 1

// Sentinel errors for checkpoint validation failures.
var (
	// ErrCorrupt reports a file that is not a complete, well-formed
	// checkpoint (truncated, trailing garbage, wrong shape, bad version).
	ErrCorrupt = errors.New("checkpoint: corrupt or incompatible checkpoint file")
	// ErrFingerprint reports a checkpoint written by a different campaign
	// (parameters, seed, binary, or build changed).
	ErrFingerprint = errors.New("checkpoint: fingerprint mismatch (stale checkpoint)")
)

// Metric handles, resolved once at package init (DESIGN.md §9).
var (
	pointsSaved    = obs.Default.Counter("checkpoint.points.saved")
	pointsRestored = obs.Default.Counter("checkpoint.points.restored")
	resumes        = obs.Default.Counter("checkpoint.resumes")
)

// payload is the on-disk shape.
type payload struct {
	Version     int                        `json:"version"`
	Fingerprint string                     `json:"fingerprint"`
	Points      map[string]json.RawMessage `json:"points"`
}

// Fingerprint derives the identity string binding a checkpoint to one
// campaign: the binary name, the canonical JSON encoding of params, the
// seed, and the build identity recorded in run manifests. Any difference
// in those inputs yields a different fingerprint.
func Fingerprint(binary string, params any, seed int64) (string, error) {
	blob, err := json.Marshal(params)
	if err != nil {
		return "", fmt.Errorf("checkpoint: fingerprint params: %w", err)
	}
	return obs.Fingerprint(binary, string(blob), seed), nil
}

// Store is an open checkpoint: a key-value map of completed points backed
// by an atomically rewritten JSON file. All methods are safe for
// concurrent use — sweep workers Put from multiple goroutines.
type Store struct {
	mu          sync.Mutex
	path        string
	fingerprint string
	points      map[string]json.RawMessage
}

// Create opens a fresh checkpoint at path for the given fingerprint. Any
// existing file is ignored and overwritten on the first Put.
func Create(path, fingerprint string) (*Store, error) {
	if path == "" || fingerprint == "" {
		return nil, fmt.Errorf("checkpoint: path and fingerprint must be non-empty")
	}
	return &Store{
		path:        path,
		fingerprint: fingerprint,
		points:      make(map[string]json.RawMessage),
	}, nil
}

// Open opens the checkpoint a run asks for with its -checkpoint path and
// -resume flag: Resume when resume is set, Create otherwise, and a nil
// Store when path is empty (no checkpointing). Resuming without a path
// is an error.
func Open(path, fingerprint string, resume bool) (*Store, error) {
	switch {
	case path == "" && resume:
		return nil, errors.New("-resume requires -checkpoint")
	case path == "":
		return nil, nil
	case resume:
		return Resume(path, fingerprint)
	}
	return Create(path, fingerprint)
}

// Resume opens an existing checkpoint at path, validating the file and
// the fingerprint. A missing, corrupt, or stale checkpoint is an error —
// a resumed run must never silently recompute or merge.
//
// A crash between the temp-file write and the atomic rename (the torn-
// write window) leaves the previous complete checkpoint at path plus a
// stray temp file: Resume reads the previous checkpoint — the interrupted
// Put's point is simply absent and gets recomputed — and sweeps the dead
// temp files so they cannot accumulate across repeated crashes.
func Resume(path, fingerprint string) (*Store, error) {
	s, err := Create(path, fingerprint)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: resume: %w", err)
	}
	points, err := Decode(data, fingerprint)
	if err != nil {
		return nil, err
	}
	s.points = points
	if stale, err := filepath.Glob(path + ".tmp-*"); err == nil {
		for _, f := range stale {
			os.Remove(f)
		}
	}
	resumes.Inc()
	return s, nil
}

// Len returns the number of completed points currently recorded.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

// Get unmarshals the recorded result for key into out and reports whether
// the key was present. A present-but-undecodable value is an error (the
// caller's type changed under the checkpoint).
func (s *Store) Get(key string, out any) (bool, error) {
	s.mu.Lock()
	raw, ok := s.points[key]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false, fmt.Errorf("checkpoint: point %q does not decode: %w", key, err)
	}
	pointsRestored.Inc()
	return true, nil
}

// Keys returns every recorded point key, in no particular order. The
// fabric work ledger uses it to find which points a resumed campaign
// still owes.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.points))
	for k := range s.points {
		keys = append(keys, k)
	}
	return keys
}

// PutBatch records several completed points and persists the checkpoint
// once, amortizing the atomic rewrite over the whole batch — the fabric
// ledger commits one shard of sweep rows per call this way. Either every
// point in the batch lands on disk or none does.
func (s *Store) PutBatch(points map[string]any) error {
	encoded := make(map[string]json.RawMessage, len(points))
	for k, v := range points {
		raw, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("checkpoint: encode point %q: %w", k, err)
		}
		encoded[k] = raw
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, raw := range encoded {
		s.points[k] = raw
	}
	if err := s.persistLocked(); err != nil {
		return err
	}
	pointsSaved.Add(uint64(len(encoded)))
	return nil
}

// Put records the completed point under key and persists the whole
// checkpoint atomically before returning, so a kill at any later instant
// cannot lose it.
func (s *Store) Put(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encode point %q: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.points[key] = raw
	if err := s.persistLocked(); err != nil {
		return err
	}
	pointsSaved.Inc()
	return nil
}

// Flush rewrites the checkpoint file from the in-memory state. Put already
// persists on every call; Flush exists for shutdown paths that want one
// final guaranteed write. Flushing a nil Store (a run without a
// checkpoint, see Open) does nothing.
func (s *Store) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistLocked()
}

// persistLocked writes the checkpoint via a temp file in the same
// directory followed by an atomic rename. Callers hold s.mu.
func (s *Store) persistLocked() error {
	buf, err := Encode(s.fingerprint, s.points)
	if err != nil {
		return err
	}
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	_, werr := tmp.Write(buf)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: write: %w", werr)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return nil
}

// Encode serializes a checkpoint payload.
func Encode(fingerprint string, points map[string]json.RawMessage) ([]byte, error) {
	if points == nil {
		points = map[string]json.RawMessage{}
	}
	buf, err := json.MarshalIndent(payload{
		Version:     Version,
		Fingerprint: fingerprint,
		Points:      points,
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	return append(buf, '\n'), nil
}

// Decode parses and validates checkpoint bytes. It rejects anything that
// is not exactly one well-formed checkpoint object — truncated files,
// trailing garbage, unknown fields, wrong schema versions — and, when
// wantFingerprint is non-empty, any fingerprint mismatch. It never
// returns a partially decoded point set.
func Decode(data []byte, wantFingerprint string) (map[string]json.RawMessage, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p payload
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// A second token after the object means trailing garbage — likely a
	// torn concatenation, which must not pass as a valid checkpoint.
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after checkpoint object", ErrCorrupt)
	}
	if p.Version != Version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, p.Version, Version)
	}
	if p.Fingerprint == "" {
		return nil, fmt.Errorf("%w: missing fingerprint", ErrCorrupt)
	}
	if wantFingerprint != "" && p.Fingerprint != wantFingerprint {
		return nil, fmt.Errorf("%w: checkpoint %s vs run %s", ErrFingerprint, short(p.Fingerprint), short(wantFingerprint))
	}
	if p.Points == nil {
		p.Points = map[string]json.RawMessage{}
	}
	return p.Points, nil
}

// short abbreviates a fingerprint for error messages.
func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
