// Fuzz coverage for the endpoint table: arbitrary raw bodies, sent to any
// registered op, must never panic the decoder or the key derivation; a
// rejected body must map to a 4xx, never a 500; and any body that is
// accepted must canonicalize deterministically — the same bytes always
// land on the same cache key. Key stability is the safety property the
// whole cache rests on: a nondeterministic key would let one request
// populate an entry another spelling of itself misses, or worse, collide
// two different requests.
package serve

import (
	"encoding/json"
	"strings"
	"testing"
)

// fuzzServer is shared across fuzz iterations; planning is read-only on
// the server (config lookups), so this is race-free.
var fuzzServer = New(Config{})

// opIndex returns the table position of the named op.
func opIndex(t testing.TB, name string) uint8 {
	for i, e := range endpoints {
		if e.name == name {
			return uint8(i)
		}
	}
	t.Fatalf("no op %q in the table", name)
	return 0
}

// Seeds per op, shared by the op's own target and by FuzzEndpoints.
var (
	analyzeSeeds = []string{
		`{"scenario":{}}`,
		`{"scenario":{"n":100,"v":5},"options":{"gh":4,"g":4},"h_nodes":2}`,
		`{"scenario":{"pd":0.9},"rng":"philox"}`,
		`{"scenario":{"period_seconds":1e308}}`,
		`not json`,
		`{"scenario":{"n":-1}}`,
	}
	simulateSeeds = []string{
		`{"scenario":{},"trials":100,"seed":42}`,
		`{"scenario":{"n":60},"trials":50,"dead_frac":0.2,"comm_range":6000,"per_hop_loss":0.1,"hop_retries":2}`,
		`{"scenario":{},"trials":1,"rng":"legacy"}`,
		`{"scenario":{},"trials":-5}`,
		`{"trials":100}`,
	}
	inferSeeds = []string{
		`{"scenario":{},"trials":100,"seed":42,"dead_frac":0.2}`,
		`{"scenario":{"n":60},"trials":50,"p_deliver":0.9,"beacons":true,"alpha":0.01,"beta":0.01}`,
		`{"scenario":{},"trials":50,"beacons":false,"rng":"philox"}`,
		`{"scenario":{},"trials":50,"p_deliver":0}`,
		`{"scenario":{},"trials":50,"alpha":0.9}`,
	}
)

// checkPlan asserts the fuzz properties for one body sent to one op.
func checkPlan(t *testing.T, e *endpoint, body []byte) {
	key, _, err := e.plan(fuzzServer, body)
	if err != nil {
		if code := errorStatus(err); code < 400 || code > 499 {
			t.Fatalf("%s rejected %q with status %d: %v", e.name, body, code, err)
		}
		return
	}
	key2, _, err := e.plan(fuzzServer, body)
	if err != nil {
		t.Fatalf("%s keyed %q once but not twice: %v", e.name, body, err)
	}
	if key != key2 {
		t.Errorf("%s: unstable cache key for %q: %q vs %q", e.name, body, key, key2)
	}
}

// fuzzOp fuzzes the bodies of one op of the table.
func fuzzOp(f *testing.F, name string, seeds []string) {
	e := endpoints[opIndex(f, name)]
	for _, body := range seeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkPlan(t, e, body) })
}

func FuzzCanonicalizeAnalyze(f *testing.F)  { fuzzOp(f, "analyze", analyzeSeeds) }
func FuzzCanonicalizeSimulate(f *testing.F) { fuzzOp(f, "simulate", simulateSeeds) }
func FuzzCanonicalizeInfer(f *testing.F)    { fuzzOp(f, "infer", inferSeeds) }

func FuzzEndpoints(f *testing.F) {
	for _, sd := range []struct {
		op    string
		seeds []string
	}{{"analyze", analyzeSeeds}, {"simulate", simulateSeeds}, {"infer", inferSeeds}} {
		for _, body := range sd.seeds {
			f.Add(opIndex(f, sd.op), []byte(body))
		}
	}
	for _, tc := range goldenCorpus {
		op, ok := strings.CutPrefix(tc.path, "/v1/")
		switch {
		case !ok || tc.body == "":
		case op == "batch":
			var req BatchRequest
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
				f.Fatal(err)
			}
			for _, it := range req.Items {
				f.Add(opIndex(f, it.Op), []byte(it.Request))
			}
		default:
			f.Add(opIndex(f, op), []byte(tc.body))
		}
	}
	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		checkPlan(t, endpoints[int(op)%len(endpoints)], body)
	})
}
