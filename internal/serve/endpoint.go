// The endpoint table: every cached op is one entry — a name, the route
// that serves it standalone, and a typed plan that resolves a decoded
// request to its cache key and the computation that renders it. Three
// consumers drive the table and each exists once: the standalone POST
// handler (handle), the /v1/batch planner (batch.go), and the peer
// forward loop (forward.go); the first two share one hit path (resolve).
// The per-endpoint knowledge — canonical forms, validation, the compute
// bodies — lives in the *Key and compute* functions the plans call;
// everything else is shared plumbing.
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
	// path is the standalone route and peer-forward target, "" for
	// batch-only ops. scope prefixes the raw-body digest so identical
	// bytes under two ops never share an alias: the route, or the
	// /v1/batch/<name> key prefix of a batch-only op.
	path, scope string
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
		name:  name,
		path:  path,
		scope: path,
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
	} else {
		e.scope = "/v1/batch/" + name
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
		cfg, total, key, err := s.placeKey(*req)
		return key, func(ctx context.Context) (any, error) { return s.computePlace(ctx, cfg, total) }, err
	}),
	op("sweep_point", "", func(s *Server, req *SweepPointRequest) (string, computeFunc, error) {
		p, key, err := s.sweepPointKey(*req)
		return key, func(ctx context.Context) (any, error) { return s.sweepPoint(ctx, p, *req) }, err
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

// serveEndpoint resolves the body read into the pooled scratch; the
// scratch outlives serveResolved, so a forward replays the raw bytes.
func (s *Server) serveEndpoint(w http.ResponseWriter, r *http.Request, e *endpoint) error {
	sc := bodyPool.Get().(*bodyScratch)
	defer bodyPool.Put(sc)
	raw, err := readBody(r, e.scope, sc)
	if err != nil {
		return err
	}
	return s.serveResolved(w, r, s.resolve(r, e, raw, false))
}

// resolved is one request or batch item after resolve: the bytes to
// answer with (a hit or a forward), the planned computation of a miss,
// or the error that becomes its response.
type resolved struct {
	e          *endpoint
	key, alias string
	compute    computeFunc
	body       []byte
	source     string
	err        error
}

// resolve is the one hit path of every standalone request and /v1/batch
// item; raw is e.scope followed by the request bytes. A byte-identical
// earlier request answers through the raw-digest alias without decoding;
// otherwise the bytes are planned and looked up by canonical key, whose
// hit, forward or compute attaches the alias. An alias miss is counted
// by that lookup, or as a miss if planning fails. A batch item forwards
// as a one-item batch, the one shape every op can take.
func (s *Server) resolve(r *http.Request, e *endpoint, raw []byte, batch bool) resolved {
	digest := sha256.Sum256(raw)
	if body, ok := s.cache.getBytes(digest[:]); ok {
		lookupHit()
		return resolved{e: e, body: body, source: "hit"}
	}
	it := resolved{e: e, alias: string(digest[:])}
	body := raw[len(e.scope):]
	if it.key, it.compute, it.err = e.plan(s, body); it.err != nil {
		lookupMiss()
		return it
	}
	it.body, it.source, _ = s.lookup(r, it.key, it.alias, forward{e: e, body: body, batch: batch})
	return it
}
