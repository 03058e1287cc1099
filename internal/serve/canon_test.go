package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// post sends one JSON body and returns status, X-Cache and the raw body.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), data
}

// TestCanonicalization is the request-canonicalization table: two bodies
// that differ only in field order, whitespace, or explicitly spelled
// defaults must land on the same cache key (second request hits), while
// any parameter mutation must change the key (second request misses).
// Same-key pairs must also produce bit-identical bodies.
func TestCanonicalization(t *testing.T) {
	cases := []struct {
		name    string
		path    string
		a, b    string
		sameKey bool
	}{
		{
			name: "reordered fields",
			path: "/v1/analyze",
			a:    `{"scenario":{"n":100,"v":5}}`,
			b:    `{"scenario":{"v":5,"n":100}}`, sameKey: true,
		},
		{
			name: "whitespace and formatting",
			path: "/v1/analyze",
			a:    `{"scenario":{"n":100}}`,
			b:    "{\n  \"scenario\": {\n    \"n\": 100\n  }\n}", sameKey: true,
		},
		{
			name:    "explicitly spelled defaults",
			path:    "/v1/analyze",
			a:       `{"scenario":{}}`,
			b:       `{"scenario":{"n":120,"field_side":32000,"rs":1000,"v":10,"period_seconds":60,"pd":0.9,"m":20,"k":5}}`,
			sameKey: true,
		},
		{
			name: "empty options equals omitted options",
			path: "/v1/analyze",
			a:    `{"scenario":{}}`,
			b:    `{"scenario":{},"options":{},"h_nodes":0}`, sameKey: true,
		},
		{
			name: "different n",
			path: "/v1/analyze",
			a:    `{"scenario":{"n":100}}`,
			b:    `{"scenario":{"n":101}}`, sameKey: false,
		},
		{
			name: "different pd",
			path: "/v1/analyze",
			a:    `{"scenario":{}}`,
			b:    `{"scenario":{"pd":0.8}}`, sameKey: false,
		},
		{
			name: "h_nodes switches analysis",
			path: "/v1/analyze",
			a:    `{"scenario":{}}`,
			b:    `{"scenario":{},"h_nodes":2}`, sameKey: false,
		},
		{
			name: "include_pmf shapes the response",
			path: "/v1/analyze",
			a:    `{"scenario":{}}`,
			b:    `{"scenario":{},"options":{"include_pmf":true}}`, sameKey: false,
		},
		{
			name: "evaluator choice is identity",
			path: "/v1/analyze",
			a:    `{"scenario":{}}`,
			b:    `{"scenario":{},"options":{"matrix":true}}`, sameKey: false,
		},
		{
			name: "design ignores scenario n and k",
			path: "/v1/design",
			a:    `{"scenario":{"n":60,"k":3}}`,
			b:    `{"scenario":{"n":200,"k":7}}`, sameKey: true,
		},
		{
			name: "design target matters",
			path: "/v1/design",
			a:    `{"scenario":{},"target_prob":0.9}`,
			b:    `{"scenario":{},"target_prob":0.8}`, sameKey: false,
		},
		{
			name: "simulate same seed",
			path: "/v1/simulate",
			a:    `{"scenario":{},"trials":50,"seed":7}`,
			b:    `{"trials":50,"seed":7,"scenario":{}}`, sameKey: true,
		},
		{
			name: "simulate seed matters",
			path: "/v1/simulate",
			a:    `{"scenario":{},"trials":50,"seed":7}`,
			b:    `{"scenario":{},"trials":50,"seed":8}`, sameKey: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh server per case isolates the cache, so X-Cache
			// provenance is exactly first-request miss, second hit-or-miss.
			ts := httptest.NewServer(New(Config{}).Handler())
			defer ts.Close()
			codeA, cacheA, bodyA := post(t, ts, tc.path, tc.a)
			if codeA != http.StatusOK {
				t.Fatalf("first request: status %d, body %s", codeA, bodyA)
			}
			if cacheA != "miss" {
				t.Fatalf("first request: X-Cache = %q, want miss", cacheA)
			}
			codeB, cacheB, bodyB := post(t, ts, tc.path, tc.b)
			if codeB != http.StatusOK {
				t.Fatalf("second request: status %d, body %s", codeB, bodyB)
			}
			if tc.sameKey {
				if cacheB != "hit" {
					t.Errorf("X-Cache = %q, want hit (bodies should canonicalize identically)", cacheB)
				}
				if !bytes.Equal(bodyA, bodyB) {
					t.Errorf("same-key responses differ:\n%s\n%s", bodyA, bodyB)
				}
			} else if cacheB != "miss" {
				t.Errorf("X-Cache = %q, want miss (bodies are semantically different)", cacheB)
			}
		})
	}
}

// TestStrictDecoding: typos and trailing garbage are 400s, never silently
// canonicalized onto a valid request's key.
func TestStrictDecoding(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"scenario":{"sensors":120}}`,    // unknown scenario field
		`{"scenarios":{}}`,                // unknown top-level field
		`{"scenario":{}} {"scenario":{}}`, // trailing data
		`{"scenario":{"n":"many"}}`,       // type mismatch
		`not json`,
	} {
		code, _, respBody := post(t, ts, "/v1/analyze", body)
		if code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400 (%s)", body, code, respBody)
		}
	}
}

// TestRequestValidation maps parameter and envelope mistakes to 400.
func TestRequestValidation(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxTrials: 100, MaxSweepPoints: 4}).Handler())
	defer ts.Close()
	cases := []struct{ path, body string }{
		{"/v1/analyze", `{"scenario":{"n":-1}}`},
		{"/v1/analyze", `{"scenario":{"pd":1.5}}`},
		{"/v1/analyze", `{"scenario":{"period_seconds":0}}`},
		{"/v1/analyze", `{"scenario":{},"h_nodes":-1}`},
		{"/v1/analyze", `{"scenario":{},"options":{"gh":3,"g":3,"target_accuracy":2}}`},
		{"/v1/analyze", `{"scenario":{},"h_nodes":2,"options":{"gh":3,"g":3,"target_accuracy":2}}`},
		{"/v1/simulate", `{"scenario":{},"trials":0}`},
		{"/v1/simulate", `{"scenario":{},"trials":101}`},
		{"/v1/simulate", `{"scenario":{},"trials":10,"dead_frac":1.5}`},
		{"/v1/simulate", `{"scenario":{},"trials":10,"per_hop_loss":1}`},
		{"/v1/simulate", `{"scenario":{"v":40},"trials":10}`}, // 48 km track, 45.3 km field diagonal
		{"/v1/sweep", `{"scenario":{},"axis":"sensors","values":[1]}`},
		{"/v1/sweep", `{"scenario":{},"axis":"n","values":[]}`},
		{"/v1/sweep", `{"scenario":{},"axis":"n","values":[1,2,3,4,5]}`},
		{"/v1/sweep", `{"scenario":{},"axis":"n","values":[60],"trials":101}`},
		{"/v1/sweep", `{"scenario":{},"axis":"n","values":[60],"retries":-1}`},
	}
	for _, tc := range cases {
		code, _, body := post(t, ts, tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", tc.path, tc.body, code, body)
		}
	}
}
