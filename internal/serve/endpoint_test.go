package serve

import (
	"fmt"
	"net/http"
	"testing"
)

// endpointCounts is one op's metric readings.
type endpointCounts struct {
	requests, errors, latency uint64
}

func readEndpointCounts() map[string]endpointCounts {
	m := make(map[string]endpointCounts, len(endpoints))
	for _, e := range endpoints {
		c := endpointCounts{requests: e.requests.Value(), errors: e.errors.Value()}
		if e.latency != nil {
			c.latency = e.latency.Count()
		}
		m[e.name] = c
	}
	return m
}

// TestEndpointMetrics: one request per op bumps exactly that op's
// counters — requests always, errors only for a rejected body, latency
// only for a standalone request — whether it arrives standalone or as a
// /v1/batch item.
func TestEndpointMetrics(t *testing.T) {
	h := New(Config{}).Handler()
	good := map[string]string{
		"analyze":     `{"scenario":{"n":90}}`,
		"design":      `{"scenario":{},"target_prob":0.7}`,
		"latency":     `{"scenario":{"n":90}}`,
		"simulate":    `{"scenario":{"n":90},"trials":20,"seed":1}`,
		"infer":       `{"scenario":{"n":90},"trials":20,"seed":1}`,
		"place":       `{"scenario":{"n":5},"grid_cols":4,"grid_rows":4,"trials":20,"seed":1}`,
		"sweep_point": `{"scenario":{},"axis":"n","value":90}`,
	}
	const bad = `{"scenario":{"n":-1}}`
	for _, e := range endpoints {
		for _, tc := range []struct {
			body      string
			batch     bool
			wantError bool
		}{
			{good[e.name], false, false},
			{bad, false, true},
			{good[e.name], true, false},
			{bad, true, true},
		} {
			if tc.body == "" {
				t.Fatalf("no request body for op %s", e.name)
			}
			if !tc.batch && e.path == "" {
				continue
			}
			path, body := e.path, tc.body
			if tc.batch {
				path, body = "/v1/batch", fmt.Sprintf(`{"items":[{"op":%q,"request":%s}]}`, e.name, tc.body)
			}
			before := readEndpointCounts()
			code, _, resp := goldenDo(t, h, path, body)
			if wantOK := tc.batch || !tc.wantError; (code == http.StatusOK) != wantOK {
				t.Fatalf("%s %s: status %d: %s", path, body, code, resp)
			}
			after := readEndpointCounts()
			for name, b := range before {
				want := b
				if name == e.name {
					want.requests++
					if tc.wantError {
						want.errors++
					}
					if !tc.batch {
						want.latency++
					}
				}
				if got := after[name]; got != want {
					t.Errorf("%s %s: op %s counters = %+v, want %+v", path, body, name, got, want)
				}
			}
		}
	}
}

// TestExperimentQueryStrict: trials and seed must be whole decimal
// integers; anything with trailing input is a 400, never a silently
// truncated (and cached) parameter.
func TestExperimentQueryStrict(t *testing.T) {
	h := New(Config{}).Handler()
	for _, q := range []string{"seed=1e5", "seed=0x10", "trials=7.9", "trials=12abc"} {
		code, _, body := goldenDo(t, h, "/v1/experiments/kmin?"+q, "")
		if code != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400: %s", q, code, body)
		}
	}
}
