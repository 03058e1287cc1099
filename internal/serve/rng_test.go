package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/scenario"
	"github.com/groupdetect/gbd/internal/sim"
)

// TestAnalyzeRNGDistinctCacheKeys asserts the scheme-safety contract on
// the cache identity: the same analyze request under different RNG
// schemes maps to different keys, while the legacy scheme (explicit or
// defaulted) keeps the pre-scheme key encoding.
func TestAnalyzeRNGDistinctCacheKeys(t *testing.T) {
	s := New(Config{})
	base := AnalyzeRequest{}
	_, legacyKey, err := s.analyzeKey(base)
	if err != nil {
		t.Fatal(err)
	}
	explicit := base
	explicit.RNG = "legacy"
	_, explicitKey, err := s.analyzeKey(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if explicitKey != legacyKey {
		t.Errorf("explicit legacy key %q != defaulted key %q", explicitKey, legacyKey)
	}
	philox := base
	philox.RNG = "philox"
	_, philoxKey, err := s.analyzeKey(philox)
	if err != nil {
		t.Fatal(err)
	}
	if philoxKey == legacyKey {
		t.Error("philox and legacy requests share a cache key")
	}

	// A server defaulting to philox must give an rng-less request the
	// same key as an explicit philox request — the default participates
	// in the identity, not the spelling.
	sp := New(Config{RNG: field.SchemePhilox})
	_, defaultedKey, err := sp.analyzeKey(base)
	if err != nil {
		t.Fatal(err)
	}
	if defaultedKey != philoxKey {
		t.Errorf("philox-default key %q != explicit philox key %q", defaultedKey, philoxKey)
	}
}

// TestAnalyzeRawFastPath exercises the byte-identical fast path: the
// second POST of the exact same body is a cache hit served from the raw
// digest alias, a whitespace variant still hits through the canonical
// key, and a replay of that variant then hits its own raw alias.
func TestAnalyzeRawFastPath(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	const body = `{"scenario":{}}`
	code, src, first := post(t, ts, "/v1/analyze", body)
	if code != http.StatusOK || src != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q", code, src)
	}
	code, src, second := post(t, ts, "/v1/analyze", body)
	if code != http.StatusOK || src != "hit" {
		t.Fatalf("replay: status %d, X-Cache %q", code, src)
	}
	if !bytes.Equal(first, second) {
		t.Error("replayed body differs from the original")
	}
	const spaced = `{ "scenario": {} }`
	code, src, third := post(t, ts, "/v1/analyze", spaced)
	if code != http.StatusOK || src != "hit" {
		t.Fatalf("whitespace variant: status %d, X-Cache %q", code, src)
	}
	if !bytes.Equal(first, third) {
		t.Error("whitespace variant body differs")
	}
	code, src, fourth := post(t, ts, "/v1/analyze", spaced)
	if code != http.StatusOK || src != "hit" {
		t.Fatalf("whitespace replay: status %d, X-Cache %q", code, src)
	}
	if !bytes.Equal(first, fourth) {
		t.Error("whitespace replay body differs")
	}
}

// TestAnalyzeRejectsUnknownRNG pins the 400 on a bad scheme name, on
// both the analyze and simulate paths.
func TestAnalyzeRejectsUnknownRNG(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, _, body := post(t, ts, "/v1/analyze", `{"scenario":{},"rng":"xorshift"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("analyze: status %d: %s", code, body)
	}
	code, _, body = post(t, ts, "/v1/simulate", `{"scenario":{},"trials":10,"rng":"xorshift"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("simulate: status %d: %s", code, body)
	}
}

// TestSimulateRNGScheme runs the same campaign under both schemes: both
// must succeed, miss independently (distinct cache identities), and the
// philox result must match a direct sim.Run under SchemePhilox.
func TestSimulateRNGScheme(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, src, legacyBody := post(t, ts, "/v1/simulate", `{"scenario":{},"trials":40,"seed":7}`)
	if code != http.StatusOK || src != "miss" {
		t.Fatalf("legacy: status %d, X-Cache %q: %s", code, src, legacyBody)
	}
	code, src, philoxBody := post(t, ts, "/v1/simulate", `{"scenario":{},"trials":40,"seed":7,"rng":"philox"}`)
	if code != http.StatusOK || src != "miss" {
		t.Fatalf("philox: status %d, X-Cache %q: %s", code, src, philoxBody)
	}
	var resp SimulateResponse
	if err := decodeBytes(philoxBody, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(sim.Config{
		Params: mustParams(t), Trials: 40, Seed: 7, Workers: 1,
		RNG: field.SchemePhilox,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Detections != want.Detections || resp.DetectionProb != want.DetectionProb {
		t.Errorf("philox campaign: got %d/%v, want %d/%v",
			resp.Detections, resp.DetectionProb, want.Detections, want.DetectionProb)
	}
}

func mustParams(t *testing.T) detect.Params {
	t.Helper()
	p, err := scenario.Scenario{}.Params()
	if err != nil {
		t.Fatal(err)
	}
	return p
}
