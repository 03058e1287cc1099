// Fuzz coverage for the endpoint table: arbitrary raw bodies, sent to any
// registered op, must never panic the decoder or the key derivation; a
// rejected body must map to a 4xx, never a 500; and any body that is
// accepted must canonicalize deterministically — the same bytes always
// land on the same cache key. Key stability is the safety property the
// whole cache rests on: a nondeterministic key would let one request
// populate an entry another spelling of itself misses, or worse, collide
// two different requests. FuzzEndpoints also sends bodies to the
// /v1/sweep and /v1/batch envelopes, which must either reject with a 4xx
// or accept and stream a 200, never panic; their rows and items are
// planned through the same table.
package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/groupdetect/gbd/internal/detect"
)

// fuzzServer is shared across fuzz iterations; planning and resolving
// without computing only read the server's config and probe its
// mutex-guarded cache, so this is race-free.
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
	sweepPointSeeds = []string{
		`{"scenario":{},"axis":"dead_frac","value":0,"trials":100,"seed":4}`,
		`{"scenario":{},"axis":"dead_frac","value":0.2,"trials":100,"seed":4,"rng":"philox"}`,
		`{"scenario":{},"axis":"dead_frac","value":1.5}`,
		`{"scenario":{},"axis":"n","value":60.5,"index":-1}`,
	}
	// Envelope seeds: /v1/sweep bodies, then /v1/batch bodies.
	sweepSeeds = []string{
		`{"scenario":{},"axis":"dead_frac","values":[0,0.2],"trials":100,"seed":4}`,
		`{"scenario":{},"axis":"dead_frac","values":[-0.5],"keep_going":true}`,
		`{"scenario":{},"axis":"n","values":[60.5],"index_base":3,"heartbeat_ms":50}`,
		`{"scenario":{},"axis":"k","values":[]}`,
		`{"scenario":{"n":-1},"axis":"m","values":[1e300],"retries":-1}`,
		`{"axis":"bogus","values":[1],"rng":"nope"}`,
		`not json`,
	}
	batchSeeds = []string{
		`{"items":[{"op":"sweep_point","request":{"scenario":{},"axis":"dead_frac","value":0,"trials":100,"seed":4}}]}`,
		`{"items":[{"op":"sweep_point","request":{"scenario":{},"axis":"dead_frac","value":1.5}},{"op":"analyze","request":{"scenario":{}}}]}`,
		`{"items":[{"op":"nope","request":{}},{"op":"simulate"}]}`,
		`{"items":[]}`,
		`{"items":[{"op":"infer","request":"not an object"}]}`,
		`not json`,
		// A repeated item, valid and broken, and the same bytes under three ops.
		`{"items":[{"op":"analyze","request":{"scenario":{}}},{"op":"analyze","request":{"scenario":{}}},{"op":"latency","request":{"scenario":{"n":-1}}},{"op":"latency","request":{"scenario":{"n":-1}}}]}`,
		`{"items":[{"op":"analyze","request":{"scenario":{"n":90}}},{"op":"latency","request":{"scenario":{"n":90}}},{"op":"sweep_point","request":{"scenario":{"n":90}}}]}`,
	}
)

// The fuzzed op space: every table entry, then the two streaming
// envelopes, which answer 200 once their body is accepted.
var (
	sweepEnvelopeOp = uint8(len(endpoints))
	batchEnvelopeOp = uint8(len(endpoints) + 1)
)

// checkRejection asserts that a rejected body maps to a 4xx.
func checkRejection(t *testing.T, what string, body []byte, err error) {
	if code := errorStatus(err); code < 400 || code > 499 {
		t.Fatalf("%s rejected %q with status %d: %v", what, body, code, err)
	}
}

// checkSweepEnvelope runs a /v1/sweep body through the handler's checks
// (strict decode, then validateSweep and its base scenario), then plans
// every row through planRow, the per-row plan handleSweep runs. A rejected envelope
// must be a 4xx; a row that fails to plan or to take its value is an
// in-band error row, whose error must classify as a 4xx too. A planned
// row's forward body must plan to the same key at the owning replica.
func checkSweepEnvelope(t *testing.T, body []byte) {
	var req SweepRequest
	var base detect.Params
	err := decodeBytes(body, &req)
	if err == nil {
		base, err = fuzzServer.validateSweep(req)
	}
	if err != nil {
		checkRejection(t, "/v1/sweep", body, err)
		return
	}
	for i, v := range req.Values {
		fwd, key, _, err := fuzzServer.planRow(&req, i)
		if err != nil {
			checkRejection(t, "/v1/sweep row", body, err)
			continue
		}
		checkPlan(t, sweepPointOp, fwd.body)
		if owner, _, _ := sweepPointOp.plan(fuzzServer, fwd.body); owner != key {
			t.Errorf("/v1/sweep row %d of %q: forward body %q plans to key %q, want %q", i, body, fwd.body, owner, key)
		}
		if _, err := applyAxis(base, req.Axis, v); err != nil {
			checkRejection(t, "/v1/sweep row", body, err)
		}
	}
}

// checkBatchEnvelope runs a /v1/batch body through the handler's checks
// and resolves every item as handleBatch does, without computing; item
// errors are in-band lines of a 200 stream and must classify as 4xx like
// a rejected envelope. A repeated item (same op, same bytes) must get
// the same line — the same error line, or the same canonical key — and
// the same alias, and the same bytes under two ops never share an alias.
func checkBatchEnvelope(t *testing.T, body []byte) {
	var req BatchRequest
	err := decodeBytes(body, &req)
	if err == nil {
		err = fuzzServer.validateBatch(req)
	}
	if err != nil {
		checkRejection(t, "/v1/batch", body, err)
		return
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
	sc := &bodyScratch{}
	seen := make(map[string]resolved)
	aliasOp := make(map[string]string)
	for _, it := range req.Items {
		res := fuzzServer.resolveItem(r, it, sc)
		if res.err != nil {
			checkRejection(t, "/v1/batch item "+it.Op, it.Request, res.err)
		}
		id := it.Op + "\x00" + string(it.Request)
		if first, ok := seen[id]; ok && (first.alias != res.alias || !bytes.Equal(itemLine(first), itemLine(res))) {
			t.Errorf("repeated %s item %q resolved differently: alias %x line %q, then alias %x line %q",
				it.Op, it.Request, first.alias, itemLine(first), res.alias, itemLine(res))
		}
		seen[id] = res
		if res.alias == "" {
			continue
		}
		if op, ok := aliasOp[res.alias]; ok && op != it.Op {
			t.Errorf("ops %s and %s share the raw-body alias of %q", op, it.Op, it.Request)
		}
		aliasOp[res.alias] = it.Op
	}
}

// itemLine is what an unanswered resolved item's batch line is fixed by:
// its error line, or else the bytes cached under its canonical key.
func itemLine(res resolved) []byte {
	if res.err != nil {
		return errorBody(res.err)
	}
	return []byte(res.key)
}

// checkPlan asserts the fuzz properties for one body sent to one op.
func checkPlan(t *testing.T, e *endpoint, body []byte) {
	key, _, err := e.plan(fuzzServer, body)
	if err != nil {
		checkRejection(t, e.name, body, err)
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
	for _, body := range sweepPointSeeds {
		f.Add(opIndex(f, "sweep_point"), []byte(body))
	}
	for _, body := range sweepSeeds {
		f.Add(sweepEnvelopeOp, []byte(body))
	}
	for _, body := range batchSeeds {
		f.Add(batchEnvelopeOp, []byte(body))
	}
	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		switch op := op % (batchEnvelopeOp + 1); op {
		case sweepEnvelopeOp:
			checkSweepEnvelope(t, body)
		case batchEnvelopeOp:
			checkBatchEnvelope(t, body)
		default:
			checkPlan(t, endpoints[op], body)
		}
	})
}
