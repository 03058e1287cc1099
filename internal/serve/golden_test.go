package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// goldenCase is one request of the serving corpus with its pinned
// observable contract: the cache key its response is stored under and
// the SHA-256 of the response bytes. Cases that must share a key (other
// spellings of the same request) pin the same key and digest.
type goldenCase struct {
	name string
	// path is the request target; a POST when body is non-empty, a GET
	// otherwise.
	path string
	body string
	key  string
	sum  string
}

// goldenCorpus covers every cached op — at least two bodies each — plus
// the spellings that must land on one key: reordered fields, explicit
// defaults, "rng":"legacy" against an omitted scheme under the legacy
// default, design bodies differing only in the output fields n and k,
// and placement with no classes against the one equivalent class.
// Monte Carlo ops stay at <= 200 trials and an 8x8 grid so the corpus
// runs in well under a second.
var goldenCorpus = []goldenCase{
	{name: "analyze/default", path: "/v1/analyze", body: `{"scenario":{}}`,
		key: "1d9ca73661e77cbf892a4f7994cfaec71d9258f5af35c56229a83d5ff5ff2543",
		sum: "99ccf47282e9079c92f61d94aca99450ad1b6090ed2e56c72d1153deb7788fb5"},
	{name: "analyze/explicit-defaults", path: "/v1/analyze",
		body: `{"scenario":{"n":120,"field_side":32000,"rs":1000,"v":10,"period_seconds":60,"pd":0.9,"m":20,"k":5},"options":{},"h_nodes":0}`,
		key:  "1d9ca73661e77cbf892a4f7994cfaec71d9258f5af35c56229a83d5ff5ff2543",
		sum:  "99ccf47282e9079c92f61d94aca99450ad1b6090ed2e56c72d1153deb7788fb5"},
	{name: "analyze/rng-legacy", path: "/v1/analyze", body: `{"rng":"legacy","scenario":{}}`,
		key: "1d9ca73661e77cbf892a4f7994cfaec71d9258f5af35c56229a83d5ff5ff2543",
		sum: "99ccf47282e9079c92f61d94aca99450ad1b6090ed2e56c72d1153deb7788fb5"},
	{name: "analyze/rng-philox", path: "/v1/analyze", body: `{"scenario":{},"rng":"philox"}`,
		key: "8676bfc1ff4a7bf883554566e61a653b01237e7b36c2c67baf0d2184b6946c8f",
		sum: "99ccf47282e9079c92f61d94aca99450ad1b6090ed2e56c72d1153deb7788fb5"},
	{name: "analyze/nodes", path: "/v1/analyze", body: `{"scenario":{"n":100,"v":5},"h_nodes":2}`,
		key: "478930baab74453d838ce18e7066a332c617ff8923dba1f506f141251dd79699",
		sum: "1ae3ac251fab3e7fa4d7503529cca4a13986832b9ae1dc38864df645490ee8fd"},
	{name: "analyze/nodes-reordered", path: "/v1/analyze", body: `{"h_nodes":2,"scenario":{"v":5,"n":100}}`,
		key: "478930baab74453d838ce18e7066a332c617ff8923dba1f506f141251dd79699",
		sum: "1ae3ac251fab3e7fa4d7503529cca4a13986832b9ae1dc38864df645490ee8fd"},
	{name: "analyze/pmf", path: "/v1/analyze", body: `{"scenario":{"n":80},"options":{"include_pmf":true}}`,
		key: "29a70153d863bcc4d3fa784f32aa1cae6eec5b196cfca7b54745fc650e5f72a1",
		sum: "1186f741dab0aad84750e210ed1d2e387c72389fea0bfcc035cfd240ac083afe"},

	{name: "design/target", path: "/v1/design", body: `{"scenario":{},"target_prob":0.8}`,
		key: "1596ca497e5f953b557d5906cc66096c92c25c50b334a9ca3ec8a118fdf08ffd",
		sum: "e5baab2eecdc829b27120bf8d2e707bd2b8e6b344a8b81daa74c3bce6a43ad8d"},
	{name: "design/target-n-k", path: "/v1/design", body: `{"scenario":{"n":300,"k":2},"target_prob":0.8}`,
		key: "1596ca497e5f953b557d5906cc66096c92c25c50b334a9ca3ec8a118fdf08ffd",
		sum: "e5baab2eecdc829b27120bf8d2e707bd2b8e6b344a8b81daa74c3bce6a43ad8d"},
	{name: "design/explicit-defaults", path: "/v1/design",
		body: `{"scenario":{},"target_prob":0.9,"false_alarm_p":0.0001,"budget":0.01,"horizon":1440,"n_max":1000}`,
		key:  "a5248d34543e03f4b59811dfe47652881f35a00cf77353ba42586c3dcad79a6d",
		sum:  "b688def5ec2e3c194289efa21ed66db2445f6aeea8d510d0c1952aa3a4ba094f"},
	{name: "design/default", path: "/v1/design", body: `{"scenario":{}}`,
		key: "a5248d34543e03f4b59811dfe47652881f35a00cf77353ba42586c3dcad79a6d",
		sum: "b688def5ec2e3c194289efa21ed66db2445f6aeea8d510d0c1952aa3a4ba094f"},

	{name: "latency/default", path: "/v1/latency", body: `{"scenario":{}}`,
		key: "48263b8742668e6e01d76ffcab989f4c837e03b58919beb7c473555a495f1170",
		sum: "da88783ac7c3288e86ff428005f499cbdb0d67c05ebfb946c1bc7e25f494e79f"},
	{name: "latency/options", path: "/v1/latency", body: `{"options":{},"scenario":{"m":20}}`,
		key: "48263b8742668e6e01d76ffcab989f4c837e03b58919beb7c473555a495f1170",
		sum: "da88783ac7c3288e86ff428005f499cbdb0d67c05ebfb946c1bc7e25f494e79f"},
	{name: "latency/slow", path: "/v1/latency", body: `{"scenario":{"v":5,"m":12}}`,
		key: "474c11c98cce65928eddcd4f108db50377eb5d43829ee0143e96222b26d00d8a",
		sum: "5f3e0b802aa8bad6ae7d547017090c1b3f2d23da377e602cb6bddd6b1413512c"},

	{name: "simulate/plain", path: "/v1/simulate", body: `{"scenario":{"n":80},"trials":150,"seed":3}`,
		key: "0d65aca57808eeff8489263343b2fd899a1cfa33d7c4ed9151f1c7b5894993d1",
		sum: "90cdd2879efa4f6cbc3a99ea714f9ac150bfd7eb5e97fdb15e1183bee0f4bb39"},
	{name: "simulate/reordered", path: "/v1/simulate", body: `{"seed":3,"trials":150,"rng":"legacy","scenario":{"n":80}}`,
		key: "0d65aca57808eeff8489263343b2fd899a1cfa33d7c4ed9151f1c7b5894993d1",
		sum: "90cdd2879efa4f6cbc3a99ea714f9ac150bfd7eb5e97fdb15e1183bee0f4bb39"},
	{name: "simulate/philox", path: "/v1/simulate", body: `{"scenario":{"n":80},"trials":150,"seed":3,"rng":"philox"}`,
		key: "c7912e028d65074f3d792af924ed4463381f39d9641e9081e3dbb101d3cf25c1",
		sum: "58bf8bd05f77005828afd3befd5c1cebc8d4193f31568f5c686f767f824e59d6"},
	{name: "simulate/faults", path: "/v1/simulate",
		body: `{"scenario":{"n":60},"trials":100,"seed":5,"dead_frac":0.2,"comm_range":6000,"per_hop_loss":0.1,"hop_retries":2}`,
		key:  "ead1a594e295cf47b2133db4dc90cbff940696c8357e8bb89cc3bde2e58ffd28",
		sum:  "0ce45d0df201dc70c5e80b61a88022c103dcb06e2442ed1baf30f8d15c1c3e98"},

	{name: "infer/plain", path: "/v1/infer", body: `{"scenario":{},"trials":120,"seed":1,"dead_frac":0.2}`,
		key: "1b53089dfc83c574ff6caa5a9bc886ee0db5a6125b61fba27eacc62e55bcbb5e",
		sum: "7ce7444e48d2ad87b3e4b9c47863365caf0c8b0a150d75d973f1d4b07846bee2"},
	{name: "infer/explicit-defaults", path: "/v1/infer",
		body: `{"scenario":{},"trials":120,"seed":1,"dead_frac":0.2,"p_deliver":0.9,"beacons":true,"rng":"legacy"}`,
		key:  "1b53089dfc83c574ff6caa5a9bc886ee0db5a6125b61fba27eacc62e55bcbb5e",
		sum:  "7ce7444e48d2ad87b3e4b9c47863365caf0c8b0a150d75d973f1d4b07846bee2"},
	{name: "infer/philox", path: "/v1/infer", body: `{"scenario":{},"trials":120,"seed":1,"dead_frac":0.2,"rng":"philox"}`,
		key: "51ea19bbf89cd30e97629d1d29eb6139193d3d943591a2fe0faca1f13d7c1fd5",
		sum: "2e31175b5f96877555a2ae25c73c28754a0963727fe2b1b5aad94b4472fe8347"},

	{name: "place/implicit-class", path: "/v1/place", body: `{"scenario":{"n":10},"grid_cols":8,"grid_rows":8,"trials":150,"seed":1}`,
		key: "fc824058757067d55eb0af5b12f876a0efb134f63392e51adcaba7133038e098",
		sum: "2d33f4d9d7732b1d4432623fcb2a6f9cdefadd2c3a6a6c44715903521bb4bff8"},
	{name: "place/explicit-class", path: "/v1/place",
		body: `{"scenario":{"n":10},"classes":[{"count":10,"rs":1000,"pd":0.9}],"grid_cols":8,"grid_rows":8,"trials":150,"seed":1}`,
		key:  "fc824058757067d55eb0af5b12f876a0efb134f63392e51adcaba7133038e098",
		sum:  "2d33f4d9d7732b1d4432623fcb2a6f9cdefadd2c3a6a6c44715903521bb4bff8"},
	{name: "place/philox", path: "/v1/place", body: `{"scenario":{"n":10},"grid_cols":8,"grid_rows":8,"trials":150,"seed":1,"rng":"philox"}`,
		key: "e28733485aa7eb2de3b81e29b4f9e609d9ca143d565f0aa07ac19ae7242b10ba",
		sum: "d58f8eb54535c8610737189c66898cc11b7f5a8512fe02b140b1965ff6ce4dee"},

	{name: "sweep_point/analysis", path: "/v1/batch",
		body: `{"items":[{"op":"sweep_point","request":{"scenario":{},"axis":"n","value":60,"index":3}}]}`,
		key:  "d10f87716959c6030f883681f28e8a3b8a02074f1b23a08fef2f319743e3a64e",
		sum:  "e697b46672b25c18ace904987040d954d3340478bef8362ce8119927a6cb15be"},
	{name: "sweep_point/reordered", path: "/v1/batch",
		body: `{"items":[{"request":{"index":3,"value":60,"axis":"n","scenario":{}},"op":"sweep_point"}]}`,
		key:  "d10f87716959c6030f883681f28e8a3b8a02074f1b23a08fef2f319743e3a64e",
		sum:  "e697b46672b25c18ace904987040d954d3340478bef8362ce8119927a6cb15be"},
	{name: "sweep_point/sim", path: "/v1/batch",
		body: `{"items":[{"op":"sweep_point","request":{"scenario":{},"axis":"dead_frac","value":0.2,"trials":150,"seed":4}}]}`,
		key:  "b3c82d3d70a37b07c4ba209ff35124f168a82184a5a0e6cb78fbf4eeb7f055aa",
		sum:  "3882fd868a677769e153e4059d735d9174841325415498ce80af089c5a124701"},

	{name: "experiments/kmin", path: "/v1/experiments/kmin",
		key: "2a9cdba6e0a07a9ca38ef74c195a958ae5f4e0b04db16f40d7c41b41132ed99d",
		sum: "2047538cc6ce2e360cd9bb3956b0906d9a57a1376630e2968cd321a48f0cdbae"},
	{name: "experiments/kmin-explicit", path: "/v1/experiments/kmin?quick=1&trials=0&seed=1",
		key: "2a9cdba6e0a07a9ca38ef74c195a958ae5f4e0b04db16f40d7c41b41132ed99d",
		sum: "2047538cc6ce2e360cd9bb3956b0906d9a57a1376630e2968cd321a48f0cdbae"},
	{name: "experiments/kmin-seed", path: "/v1/experiments/kmin?seed=2",
		key: "016e67097825364e857131ba59e9fe5e4b95603ef323ee0dda2e4a064a61cdca",
		sum: "2047538cc6ce2e360cd9bb3956b0906d9a57a1376630e2968cd321a48f0cdbae"},
}

// goldenDo sends one corpus request straight through the handler and
// returns status, X-Cache and the response bytes.
func goldenDo(t *testing.T, h http.Handler, path, body string) (int, string, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if body != "" {
		req = httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes()
}

func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenCorpus pins, for every corpus body: the response digest; the
// cache key (the response bytes must be exactly what the cache holds
// under the pinned key); that the first request hits exactly when an
// earlier case shares its key; and that a byte-identical replay is a hit
// with the same bytes.
func TestGoldenCorpus(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	seen := map[string]bool{}
	for _, tc := range goldenCorpus {
		code, src, body := goldenDo(t, h, tc.path, tc.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, code, body)
		}
		if got := hexSum(body); got != tc.sum {
			t.Errorf("%s: response sha256 = %s, want %s", tc.name, got, tc.sum)
		}
		if cached, ok := srv.cache.get(tc.key); !ok || !bytes.Equal(cached, body) {
			t.Errorf("%s: cache.get(%s) = %t, %q; want the response bytes", tc.name, tc.key, ok, cached)
		}
		if seen[tc.key] != isHit(tc, src) {
			t.Errorf("%s: first request X-Cache = %q; want a hit exactly when an earlier case shares the key", tc.name, src)
		}
		seen[tc.key] = true

		code, src, again := goldenDo(t, h, tc.path, tc.body)
		if code != http.StatusOK || !isHit(tc, src) {
			t.Errorf("%s: replay status %d, X-Cache %q; want a hit", tc.name, code, src)
		}
		if !bytes.Equal(again, body) {
			t.Errorf("%s: replay bytes differ", tc.name)
		}
	}
}

func isHit(tc goldenCase, src string) bool {
	if tc.path == "/v1/batch" {
		return src == "hit=1,miss=0,forward=0,error=0"
	}
	return src == "hit"
}

// TestGoldenBatchMatchesStandalone: on a cold server, one /v1/batch of
// every standalone corpus body computes each item and renders lines with
// exactly the pinned standalone digests.
func TestGoldenBatchMatchesStandalone(t *testing.T) {
	var items []string
	var want []goldenCase
	for _, tc := range goldenCorpus {
		op, ok := strings.CutPrefix(tc.path, "/v1/")
		if !ok || tc.body == "" || op == "batch" {
			continue
		}
		items = append(items, fmt.Sprintf(`{"op":%q,"request":%s}`, op, tc.body))
		want = append(want, tc)
	}
	srv := New(Config{})
	code, src, body := goldenDo(t, srv.Handler(), "/v1/batch", `{"items":[`+strings.Join(items, ",")+`]}`)
	if code != http.StatusOK || !strings.HasSuffix(src, ",forward=0,error=0") {
		t.Fatalf("batch: status %d, X-Cache %q: %s", code, src, body)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != len(want) {
		t.Fatalf("batch returned %d lines, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		if i == len(lines)-1 {
			line = append(line, '\n')
		}
		if got := hexSum(line); got != want[i].sum {
			t.Errorf("%s: batch line sha256 = %s, want the standalone %s", want[i].name, got, want[i].sum)
		}
	}
}
