package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// placeBody is a small, fast placement request shared by the tests.
const placeBody = `{"scenario":{"n":10},"grid_cols":8,"grid_rows":8,"trials":150,"seed":1}`

func TestPlaceEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, _, body := post(t, ts, "/v1/place", placeBody)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp PlaceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Sensors) != 10 {
		t.Fatalf("placed %d sensors, want 10", len(resp.Sensors))
	}
	if resp.Scenario.N != 10 || resp.Candidates != 64 || resp.Trials != 150 {
		t.Errorf("echo wrong: n=%d candidates=%d trials=%d", resp.Scenario.N, resp.Candidates, resp.Trials)
	}
	if resp.PlacedProb < resp.UniformProb {
		t.Errorf("placed %.4f < uniform %.4f", resp.PlacedProb, resp.UniformProb)
	}
	if resp.KMin < 1 || resp.KMinExact < 1 || resp.KMinExact > resp.KMin {
		t.Errorf("k_min=%d k_min_exact=%d", resp.KMin, resp.KMinExact)
	}
	if len(resp.Classes) != 1 || resp.Classes[0].Count != 10 {
		t.Errorf("resolved classes = %+v", resp.Classes)
	}
}

func TestPlaceCanonicalizationAndCache(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, xc, first := post(t, ts, "/v1/place", placeBody)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, first)
	}
	if xc != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", xc)
	}
	// Same request, different field order and an explicitly spelled
	// default: must hit the same cache entry with the same bytes.
	reordered := `{"seed":1,"trials":150,"grid_rows":8,"grid_cols":8,"rng":"legacy","scenario":{"n":10}}`
	code, xc, second := post(t, ts, "/v1/place", reordered)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, second)
	}
	if xc != "hit" {
		t.Errorf("reordered request X-Cache = %q, want hit", xc)
	}
	if !bytes.Equal(first, second) {
		t.Error("cache hit returned different bytes than the miss that populated it")
	}
	// An equivalent explicit class list shares the key with the
	// scenario-n spelling.
	classes := `{"scenario":{"n":10},"classes":[{"count":10,"rs":1000,"pd":0.9}],"grid_cols":8,"grid_rows":8,"trials":150,"seed":1}`
	code, xc, third := post(t, ts, "/v1/place", classes)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, third)
	}
	if xc != "hit" || !bytes.Equal(first, third) {
		t.Errorf("explicit single class: X-Cache = %q, bytes equal = %v; want a hit with identical bytes",
			xc, bytes.Equal(first, third))
	}
	// A different seed must not share the entry.
	code, xc, _ = post(t, ts, "/v1/place", `{"scenario":{"n":10},"grid_cols":8,"grid_rows":8,"trials":150,"seed":2}`)
	if code != http.StatusOK || xc != "miss" {
		t.Errorf("seed=2: status %d X-Cache %q, want 200 miss", code, xc)
	}
}

func TestPlaceBatchBitIdentical(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, _, standalone := post(t, ts, "/v1/place", placeBody)
	if code != http.StatusOK {
		t.Fatalf("standalone: status %d: %s", code, standalone)
	}
	batch := `{"items":[{"op":"place","request":` + placeBody + `}]}`
	code, _, line := post(t, ts, "/v1/batch", batch)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, line)
	}
	if !bytes.Equal(standalone, line) {
		t.Errorf("batch line differs from standalone response:\n batch: %s\n alone: %s", line, standalone)
	}
}

func TestPlaceRequestErrors(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	cases := []struct {
		name, body string
		want       int
	}{
		{"unknown field", `{"scenario":{},"grid":9}`, http.StatusBadRequest},
		{"grid too large", `{"scenario":{},"grid_cols":4096}`, http.StatusBadRequest},
		{"budget exceeds cells", `{"scenario":{"n":100},"grid_cols":5,"grid_rows":5,"trials":50}`, http.StatusBadRequest},
		{"bad rng", `{"scenario":{},"rng":"xorshift"}`, http.StatusBadRequest},
		{"area cap", `{"scenario":{},"grid_cols":128,"grid_rows":128,"trials":200000}`, http.StatusRequestEntityTooLarge},
		{"bad class", `{"scenario":{},"classes":[{"count":5,"rs":-1,"pd":0.9}]}`, http.StatusBadRequest},
		{"track longer than the field diagonal", `{"scenario":{"v":40},"grid_cols":8,"grid_rows":8,"trials":10}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, _, body := post(t, ts, "/v1/place", tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, code, tc.want, body)
		}
	}
}

func TestDesignReportsExactK(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, _, body := post(t, ts, "/v1/design", `{"scenario":{},"target_prob":0.8}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp DesignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.KMinExact < 1 || resp.KMinExact > resp.K {
		t.Errorf("k_min_exact = %d, k = %d; want 1 <= exact <= union-bound k", resp.KMinExact, resp.K)
	}
}
