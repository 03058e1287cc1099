// The endpoint table: every cached op is one entry — a name, the route
// that serves it standalone, and a typed plan that resolves a decoded
// request to its cache key and the computation that renders it. Three
// consumers drive the table and each exists once: the standalone POST
// handler (handle), the /v1/batch planner (batch.go), and the peer
// forward loop (forward.go). The per-endpoint knowledge — canonical
// forms, validation, the compute bodies — lives in the *Key and compute*
// functions the plans call; everything else is shared plumbing.
package serve

import (
	"context"
	"crypto/sha256"
	"net/http"
	"strings"

	"github.com/groupdetect/gbd/internal/obs"
)

// computeFunc runs one planned request; its result is marshaled once by
// renderCompute into the bytes every hit and follower receives.
type computeFunc = func(ctx context.Context) (any, error)

// endpoint is one entry of the table.
type endpoint struct {
	name string
	// path is the standalone route, which also scopes the raw-body digest
	// and is the peer-forward target; "" for batch-only ops.
	path string
	// plan strictly decodes a request body and resolves it to its cache
	// key and computation.
	plan func(s *Server, body []byte) (key string, compute computeFunc, err error)

	// Metric handles, resolved once when the table is built (DESIGN.md §9
	// hot-path contract). latency is observed by the route's timed
	// wrapper and is nil for batch-only ops.
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// op builds a table entry around a typed plan: the generic wrapper owns
// the strict decode into Req, so a plan only ever sees a well-formed
// request.
func op[Req any](name, path string, plan func(s *Server, req *Req) (string, computeFunc, error)) *endpoint {
	e := &endpoint{
		name: name,
		path: path,
		plan: func(s *Server, body []byte) (string, computeFunc, error) {
			var req Req
			if err := decodeBytes(body, &req); err != nil {
				return "", nil, err
			}
			return plan(s, &req)
		},
		requests: obs.Default.Counter("serve." + name + ".requests"),
		errors:   obs.Default.Counter("serve." + name + ".errors"),
	}
	if path != "" {
		e.latency = obs.Default.Histogram("serve."+name+".latency.seconds", obs.SecondsBuckets())
	}
	return e
}

// endpoints is the table, in the order the batch op error names them.
var endpoints = []*endpoint{
	op("analyze", "/v1/analyze", func(s *Server, req *AnalyzeRequest) (string, computeFunc, error) {
		p, key, err := s.analyzeKey(*req)
		return key, func(ctx context.Context) (any, error) { return s.computeAnalyze(ctx, p, *req) }, err
	}),
	op("design", "/v1/design", func(s *Server, req *DesignRequest) (string, computeFunc, error) {
		p, key, err := s.designKey(req)
		return key, func(ctx context.Context) (any, error) { return s.computeDesign(ctx, p, *req) }, err
	}),
	op("latency", "/v1/latency", func(s *Server, req *LatencyRequest) (string, computeFunc, error) {
		p, key, err := s.latencyKey(*req)
		return key, func(ctx context.Context) (any, error) { return s.computeLatency(ctx, p, *req) }, err
	}),
	op("simulate", "/v1/simulate", func(s *Server, req *SimulateRequest) (string, computeFunc, error) {
		p, key, err := s.simulateKey(*req)
		return key, func(ctx context.Context) (any, error) { return s.computeSimulate(ctx, p, *req) }, err
	}),
	op("infer", "/v1/infer", func(s *Server, req *InferRequest) (string, computeFunc, error) {
		p, cfg, key, err := s.inferKey(*req)
		return key, func(ctx context.Context) (any, error) { return s.computeInfer(ctx, p, *req, cfg) }, err
	}),
	op("place", "/v1/place", func(s *Server, req *PlaceRequest) (string, computeFunc, error) {
		cfg, classes, key, err := s.placeKey(*req)
		return key, func(ctx context.Context) (any, error) { return s.computePlace(ctx, cfg, classes) }, err
	}),
	op("sweep_point", "", func(s *Server, req *SweepPointRequest) (string, computeFunc, error) {
		p, key, err := s.sweepPointKey(*req)
		return key, func(ctx context.Context) (any, error) { return s.sweepPoint(ctx, p, req.sweep(), 0, req.Value) }, err
	}),
}

// opNames lists the table's op names for the batch's unknown-op error.
var opNames = func() string {
	names := make([]string, len(endpoints))
	for i, e := range endpoints {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}()

// endpointFor returns the table entry for a batch op name, or nil.
func endpointFor(name string) *endpoint {
	for _, e := range endpoints {
		if e.name == name {
			return e
		}
	}
	return nil
}

// handle is the one standalone POST handler, shared by every routed
// table entry.
func (s *Server) handle(e *endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e.requests.Inc()
		if err := s.serveEndpoint(w, r, e); err != nil {
			e.errors.Inc()
			s.writeError(w, err)
		}
	}
}

// serveEndpoint is the decode → key → cache → forward chain. Raw-body
// fast path first: hash the exact request bytes and serve the rendered
// response without decoding when a previous byte-identical request
// populated the alias. Identical bytes always canonicalize identically,
// so this can never serve the wrong entry; bodies that differ only in
// whitespace or field order fall through to the canonical key.
func (s *Server) serveEndpoint(w http.ResponseWriter, r *http.Request, e *endpoint) error {
	sc := bodyPool.Get().(*bodyScratch)
	defer bodyPool.Put(sc)
	raw, err := readBody(r, e.path, sc)
	if err != nil {
		return err
	}
	digest := sha256.Sum256(raw)
	if body, ok := s.cache.getBytes(digest[:]); ok {
		lookupHit()
		writeBody(w, "hit", body)
		return nil
	}
	lookupMiss()
	body := raw[len(e.path):]
	key, compute, err := e.plan(s, body)
	if err != nil {
		return err
	}
	// The raw bytes outlive serveKeyed (the pooled scratch is released on
	// return), so a peer forward replays them verbatim.
	return s.serveKeyed(w, r, key, string(digest[:]), forward{e: e, body: body}, compute)
}
