// Package serve is the concurrent analysis/simulation serving layer: an
// HTTP JSON API exposing the paper's M-S-approach analysis, the design
// workflow, latency profiles, bounded Monte Carlo campaigns, parameter
// sweeps (streamed as NDJSON), and the experiment registry as a
// long-lived service.
//
// The serving machinery is the request/cache/batch shape used by
// inference stacks (DESIGN.md §11):
//
//   - canonicalization: every request body is resolved against defaults
//     and fingerprinted (obs.Fingerprint), so equivalent bodies share one
//     cache key (canon.go);
//   - a size-bounded LRU over rendered response bytes — a hit returns the
//     exact bytes of the response that populated it (cache.go);
//   - singleflight dedup: concurrent identical misses share one
//     computation (flight.go);
//   - admission control: a bounded worker pool behind a bounded queue,
//     shedding load with 429 (queue full) and 503 (deadline expired while
//     queued) instead of collapsing (admission.go);
//   - graceful drain: the server attaches no state to http.Server, so
//     http.Server.Shutdown gives drain semantics for free — in-flight
//     requests (including NDJSON sweep streams) run to completion while
//     new connections are refused.
//
// All computations observe a per-request deadline (Config.RequestTimeout)
// through the context plumbing added in DESIGN.md §10, so a runaway
// request cannot pin a worker forever.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/experiments"
	"github.com/groupdetect/gbd/internal/falsealarm"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/infer"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/peer"
	"github.com/groupdetect/gbd/internal/placement"
	"github.com/groupdetect/gbd/internal/sim"
)

// Config tunes the serving layer. The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// CacheEntries bounds the result LRU (default 1024; negative disables
	// caching).
	CacheEntries int
	// Workers bounds concurrent computations (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker (default
	// 4*Workers). Requests beyond it are rejected with 429.
	QueueDepth int
	// RequestTimeout deadlines each computation (default 30s).
	RequestTimeout time.Duration
	// MaxTrials bounds /v1/simulate and per-sweep-point trial counts
	// (default 200000).
	MaxTrials int
	// MaxSweepPoints bounds /v1/sweep value lists (default 512).
	MaxSweepPoints int
	// SweepWorkers bounds the intra-request parallelism of one sweep
	// stream (default 1). A sweep holds exactly one admission slot
	// regardless; this knob only shapes work inside it.
	SweepWorkers int
	// Retries, RetryBackoff and PointTimeout are the default sweep fault
	// policy (the gbd-experiments -retries / gbd-faults -point-retries
	// vocabulary); SweepRequest fields override them per request.
	Retries      int
	RetryBackoff time.Duration
	PointTimeout time.Duration
	// RNG is the default trial RNG scheme for requests that omit "rng"
	// (zero value: the legacy per-trial reseed scheme). The scheme is
	// part of every cache identity, so flipping the default cannot serve
	// results computed under the other scheme.
	RNG field.RNGScheme
	// MaxBatchItems bounds /v1/batch item lists (default 1024). Requests
	// exceeding it are rejected with 413.
	MaxBatchItems int

	// Peers is the fleet view for consistent-hash cache sharding: the
	// base URLs of every replica, this one included, identical on every
	// replica (same strings — the ring is a pure function of this list).
	// Fewer than two peers disables sharding. Self must then name this
	// replica's own entry verbatim; validate with Config.ValidatePeers
	// before New, which silently disables sharding on a bad fleet view.
	Peers []string
	Self  string
	// PeerCooldown is how long a peer marked dead stays out of the ring
	// before a single re-admission probe (default 2s).
	PeerCooldown time.Duration
	// PeerTimeout bounds one peer-forward round trip (default 2s). A
	// stalled owner — accepting connections but never answering — times
	// out here, trips its breaker, and the request falls back to local
	// compute instead of stalling for the full request deadline.
	PeerTimeout time.Duration
}

// ValidatePeers checks the fleet-view configuration: with sharding
// enabled (two or more peers), the list must be duplicate-free and Self
// must appear in it verbatim.
func (c Config) ValidatePeers() error {
	if len(c.Peers) < 2 {
		return nil
	}
	_, err := peer.NewPicker(c.Peers, c.Self, peer.Options{})
	return err
}

func (c Config) withDefaults() Config {
	if err := c.RNG.Validate(); err != nil {
		c.RNG = field.SchemeLegacy
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxTrials <= 0 {
		c.MaxTrials = 200000
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 512
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = 1
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 1024
	}
	if c.PeerCooldown <= 0 {
		c.PeerCooldown = 2 * time.Second
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	return c
}

// Server is the serving layer. Create with New; it is safe for
// concurrent use by any number of HTTP requests.
type Server struct {
	cfg    Config
	cache  *resultCache
	flight *flightGroup
	adm    *admission
	mux    *http.ServeMux
	start  time.Time
	// peers is the consistent-hash fleet view; nil when sharding is
	// disabled (fewer than two peers, or an invalid fleet view — callers
	// surface the latter via Config.ValidatePeers before New).
	peers  *peer.Picker
	peerHC *http.Client
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		cache:  newResultCache(cfg.CacheEntries),
		flight: newFlightGroup(),
		adm:    newAdmission(cfg.Workers, cfg.QueueDepth),
		start:  time.Now(),
	}
	if len(cfg.Peers) >= 2 {
		if pk, err := peer.NewPicker(cfg.Peers, cfg.Self, peer.Options{Cooldown: cfg.PeerCooldown}); err == nil {
			s.peers = pk
			s.peerHC = &http.Client{Timeout: cfg.RequestTimeout}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", timed(s.handleHealthz, nil))
	mux.HandleFunc("GET /metrics", timed(s.handleMetrics, nil))
	for _, e := range endpoints {
		if e.path != "" {
			mux.HandleFunc("POST "+e.path, timed(s.handle(e), e.latency))
		}
	}
	mux.HandleFunc("POST /v1/sweep", timed(s.handleSweep, nil))
	mux.HandleFunc("POST /v1/batch", timed(s.handleBatch, nil))
	mux.HandleFunc("GET /v1/experiments/{id}", timed(s.handleExperiment, nil))
	s.mux = mux
	return s
}

// Handler returns the HTTP handler: the API mux wrapped with request
// counting. Mount it on an http.Server; http.Server.Shutdown then drains
// in-flight requests gracefully.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveRequests.Inc()
		s.mux.ServeHTTP(w, r)
	})
}

// timed wraps one route with latency observation: serve.latency.seconds
// for every route, plus the op's own histogram for a table op — one
// clock pair per request either way. Requests the mux answers itself
// (404, 405) are counted in serve.requests but not timed.
func timed(h http.HandlerFunc, op *obs.Histogram) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		d := time.Since(t0).Seconds()
		serveLatency.Observe(d)
		if op != nil {
			op.Observe(d)
		}
	}
}

// requestCtx derives the computation context: the request context bounded
// by the per-request deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// errorStatus maps an error to its HTTP status: request/parameter
// problems are 400, size-bound overflow 413, queue overflow 429,
// deadline or cancellation 503, everything else 500.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrRequest),
		errors.Is(err, detect.ErrParams),
		errors.Is(err, sim.ErrConfig),
		errors.Is(err, infer.ErrConfig),
		errors.Is(err, experiments.ErrExperiment),
		errors.Is(err, netsim.ErrNetwork),
		errors.Is(err, placement.ErrConfig):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// errorBody renders the JSON error line — the same bytes whether the
// error is a whole response (writeError) or one item of a /v1/batch
// stream.
func errorBody(err error) []byte {
	resp, _ := json.Marshal(map[string]string{"error": err.Error()})
	return append(resp, '\n')
}

// writeError renders an error response. Shed requests (429 overflow, 503
// queued-deadline) carry a Retry-After header derived from the live
// queue depth so clients — gbd-loadgen, the fabric coordinator — back
// off for roughly one queue drain instead of hot-looping.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	serveErrors.Inc()
	code := errorStatus(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(errorBody(err))
}

// writeBody writes a rendered JSON response with its cache provenance
// ("hit", "miss", or "dedup") in the X-Cache header.
func writeBody(w http.ResponseWriter, source string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", source)
	w.Write(body)
}

// serveKeyed is the shared read path: cache lookup, then singleflight
// dedup around an admission-controlled computation. compute's result is
// marshaled once; the bytes are cached and every hit or follower receives
// exactly those bytes, so identical requests are bit-identical responses
// by construction. An error is returned unwritten for the caller to
// count and render.
//
// rawKey, when non-empty, is the digest of the exact request bytes,
// attached to the canonical entry as an alias so the next byte-identical
// request short-circuits in the handler before any JSON decoding or
// canonicalization (the near-zero-alloc hit path). The alias is sound
// because identical raw bytes always canonicalize to the same key, hence
// the same body; it shares the entry's LRU slot rather than holding one
// of its own.
func (s *Server) serveKeyed(w http.ResponseWriter, r *http.Request, key, rawKey string, fwd forward, compute computeFunc) error {
	if body, source, ok := s.lookup(r, key, rawKey, fwd); ok {
		writeBody(w, source, body)
		return nil
	}
	body, err, shared := s.flight.do(key, func() ([]byte, error) {
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		release, err := s.adm.acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		return s.renderCompute(ctx, key, rawKey, compute)
	})
	if err != nil {
		return err
	}
	source := "miss"
	if shared {
		source = "dedup"
	}
	writeBody(w, source, body)
	return nil
}

// lookup classifies one keyed lookup as exactly one of hit, forward, or
// miss (metrics.go), for the standalone handler and every /v1/batch item
// alike. On a hit or forward it returns the bytes to answer with and
// their X-Cache provenance; ok=false is a miss the caller computes.
//
// With fleet sharding enabled, a local miss on a key owned by another
// replica is forwarded there (forward.go) instead of computed; the
// owner's singleflight is the fleet-wide dedup point, so no key is
// computed by more than one replica.
func (s *Server) lookup(r *http.Request, key, rawKey string, fwd forward) (body []byte, source string, ok bool) {
	if body, ok := s.cache.get(key); ok {
		lookupHit()
		s.cache.attachAlias(key, rawKey)
		return body, "hit", true
	}
	if body, upstream, ok := s.tryForward(r, key, fwd); ok {
		lookupForward()
		// Byte replication is fine — only computation must be single-
		// owner — and caching the forwarded bytes locally means repeat
		// traffic for this key is a local hit on every replica.
		s.cache.add(key, body)
		s.cache.attachAlias(key, rawKey)
		return body, "forward-" + upstream, true
	}
	lookupMiss()
	return nil, "", false
}

// renderCompute runs compute, marshals its result into the final
// response bytes (one JSON line), and populates the cache. It is the
// single render point shared by the standalone handler and /v1/batch,
// which is what makes their bytes bit-identical by construction.
func (s *Server) renderCompute(ctx context.Context, key, rawKey string, compute computeFunc) ([]byte, error) {
	v, err := compute(ctx)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal response: %w", err)
	}
	body = append(body, '\n')
	s.cache.add(key, body)
	s.cache.attachAlias(key, rawKey)
	return body, nil
}

// ---- /healthz and /metrics ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"inflight":       inflight.Value(),
		"cache_entries":  s.cache.len(),
	}
	body, _ := json.Marshal(resp)
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body, err := json.MarshalIndent(obs.Default.Snapshot(), "", "  ")
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// ---- /v1/analyze ----

// AnalyzeResponse is the /v1/analyze result.
type AnalyzeResponse struct {
	Scenario          scenarioEcho `json:"scenario"`
	HNodes            int          `json:"h_nodes,omitempty"`
	DetectionProb     float64      `json:"detection_prob"`
	RawTail           float64      `json:"raw_tail"`
	Mass              float64      `json:"mass"`
	Gh                int          `json:"gh"`
	G                 int          `json:"g"`
	PredictedAccuracy float64      `json:"predicted_accuracy,omitempty"`
	PMF               []float64    `json:"pmf,omitempty"`
}

// analyzeCanonical is the canonical (fully resolved, fixed-order) form of
// an AnalyzeRequest, the value that is fingerprinted into the cache key.
type analyzeCanonical struct {
	Scenario scenarioEcho   `json:"scenario"`
	Options  AnalyzeOptions `json:"options"`
	HNodes   int            `json:"h_nodes"`
	// RNG is the resolved scheme's canonical spelling; omitempty keeps
	// legacy ("") encodings — and therefore pre-scheme cache keys —
	// byte-identical.
	RNG string `json:"rng,omitempty"`
}

// analyzeKey canonicalizes an AnalyzeRequest into its resolved parameters
// and cache key.
func (s *Server) analyzeKey(req AnalyzeRequest) (detect.Params, string, error) {
	p, err := req.Scenario.params()
	if err != nil {
		return p, "", err
	}
	if req.HNodes < 0 {
		return p, "", fmt.Errorf("h_nodes = %d must be >= 0: %w", req.HNodes, ErrRequest)
	}
	scheme, err := s.resolveRNG(req.RNG)
	if err != nil {
		return p, "", err
	}
	key, err := cacheKey("/v1/analyze", analyzeCanonical{
		Scenario: echoParams(p), Options: req.Options, HNodes: req.HNodes,
		RNG: canonRNG(scheme),
	}, 0)
	return p, key, err
}

// computeAnalyze runs the analysis for a decoded request: MSApproach, or
// MSApproachNodes when h_nodes >= 1.
func (s *Server) computeAnalyze(ctx context.Context, p detect.Params, req AnalyzeRequest) (*AnalyzeResponse, error) {
	opt := req.Options.msOptions()
	if req.HNodes >= 1 {
		res, err := gbd.AnalyzeNodesCtx(ctx, p, req.HNodes, opt)
		if err != nil {
			return nil, err
		}
		return &AnalyzeResponse{
			Scenario: echoParams(p), HNodes: req.HNodes,
			DetectionProb: res.DetectionProb, RawTail: res.RawTail,
			Mass: res.Mass, Gh: res.Gh, G: res.G,
		}, nil
	}
	res, err := gbd.AnalyzeCtx(ctx, p, opt)
	if err != nil {
		return nil, err
	}
	resp := &AnalyzeResponse{
		Scenario:      echoParams(p),
		DetectionProb: res.DetectionProb, RawTail: res.RawTail,
		Mass: res.Mass, Gh: res.Gh, G: res.G,
		PredictedAccuracy: res.PredictedAccuracy,
	}
	if req.Options.IncludePMF {
		resp.PMF = res.PMF
	}
	return resp, nil
}

// ---- /v1/design ----

// DesignResponse is the /v1/design result: the sized rule and fleet.
type DesignResponse struct {
	Scenario      scenarioEcho `json:"scenario"` // with the designed N and K
	K             int          `json:"k"`
	N             int          `json:"n"`
	DetectionProb float64      `json:"detection_prob"`
	TargetProb    float64      `json:"target_prob"`
	FalseAlarmP   float64      `json:"false_alarm_p"`
	Budget        float64      `json:"budget"`
	Horizon       int          `json:"horizon"`
	// KMinExact is the §6 exact scan-statistic lower bound on K for the
	// sized fleet — never larger than K, which is sized from the union
	// bound. 0 when the exact chain exceeds its tractability guard.
	KMinExact int `json:"k_min_exact"`
}

// designCanonical omits the scenario's N and K: they are outputs of the
// design workflow, so requests differing only there must share a key.
type designCanonical struct {
	Scenario    scenarioEcho `json:"scenario"`
	TargetProb  float64      `json:"target_prob"`
	FalseAlarmP float64      `json:"false_alarm_p"`
	Budget      float64      `json:"budget"`
	Horizon     int          `json:"horizon"`
	NMax        int          `json:"n_max"`
}

func (r *DesignRequest) withDefaults() {
	if r.TargetProb == 0 {
		r.TargetProb = 0.9
	}
	if r.FalseAlarmP == 0 {
		r.FalseAlarmP = 1e-4
	}
	if r.Budget == 0 {
		r.Budget = 0.01
	}
	if r.Horizon == 0 {
		r.Horizon = 1440
	}
	if r.NMax == 0 {
		r.NMax = 1000
	}
}

// computeDesign sizes the rule and fleet: K from the false-alarm budget
// (union-bound MinK), N from the detection requirement, then a K re-check
// at the sized fleet — the analytical core of the gbd-design workflow.
func (s *Server) computeDesign(ctx context.Context, p detect.Params, req DesignRequest) (*DesignResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	const provisionalN = 120
	k, err := gbd.MinK(p.WithN(provisionalN), req.FalseAlarmP, req.Horizon, req.Budget)
	if err != nil {
		return nil, err
	}
	p = p.WithK(k)
	n, err := gbd.RequiredSensors(p, req.TargetProb, req.NMax, gbd.MSOptions{})
	if err != nil {
		return nil, fmt.Errorf("sizing the fleet: %w", err)
	}
	k2, err := gbd.MinK(p.WithN(n), req.FalseAlarmP, req.Horizon, req.Budget)
	if err != nil {
		return nil, err
	}
	if k2 != k {
		p = p.WithK(k2)
		n, err = gbd.RequiredSensors(p, req.TargetProb, req.NMax, gbd.MSOptions{})
		if err != nil {
			return nil, fmt.Errorf("re-sizing the fleet for K=%d: %w", k2, err)
		}
		k = k2
	}
	p = p.WithN(n)
	ana, err := gbd.AnalyzeCtx(ctx, p, gbd.MSOptions{})
	if err != nil {
		return nil, err
	}
	resp := &DesignResponse{
		Scenario: echoParams(p), K: k, N: n,
		DetectionProb: ana.DetectionProb,
		TargetProb:    req.TargetProb, FalseAlarmP: req.FalseAlarmP,
		Budget: req.Budget, Horizon: req.Horizon,
	}
	// The §6 exact bound rides along: tighter than the union-bound K when
	// the scan-statistic chain is tractable, reported as 0 otherwise.
	if kExact, err := gbd.MinKExact(p, req.FalseAlarmP, req.Horizon, req.Budget); err == nil {
		resp.KMinExact = kExact
	} else if !errors.Is(err, falsealarm.ErrIntractable) {
		return nil, err
	}
	return resp, nil
}

// designKey resolves a DesignRequest's defaults (mutating it) and
// returns its scenario parameters and cache key.
func (s *Server) designKey(req *DesignRequest) (detect.Params, string, error) {
	req.withDefaults()
	p, err := req.Scenario.params()
	if err != nil {
		return p, "", err
	}
	canon := designCanonical{
		Scenario:    echoParams(p),
		TargetProb:  req.TargetProb,
		FalseAlarmP: req.FalseAlarmP,
		Budget:      req.Budget,
		Horizon:     req.Horizon,
		NMax:        req.NMax,
	}
	canon.Scenario.N, canon.Scenario.K = 0, 0 // outputs, not identity
	key, err := cacheKey("/v1/design", canon, 0)
	return p, key, err
}

// ---- /v1/latency ----

// LatencyResponse is the /v1/latency result: the analytical detection
// latency CDF over sensing periods 1..M. DetectionProb is the CDF's last
// point — the paper's end-of-window detection probability.
type LatencyResponse struct {
	Scenario      scenarioEcho `json:"scenario"`
	FirstPeriod   int          `json:"first_period"`
	P             []float64    `json:"p"`
	DetectionProb float64      `json:"detection_prob"`
}

type latencyCanonical struct {
	Scenario scenarioEcho   `json:"scenario"`
	Options  AnalyzeOptions `json:"options"`
}

func (s *Server) computeLatency(ctx context.Context, p detect.Params, req LatencyRequest) (*LatencyResponse, error) {
	cdf, err := gbd.LatencyCtx(ctx, p, req.Options.msOptions())
	if err != nil {
		return nil, err
	}
	return &LatencyResponse{
		Scenario:      echoParams(p),
		FirstPeriod:   cdf.FirstPeriod,
		P:             cdf.P,
		DetectionProb: cdf.P[len(cdf.P)-1],
	}, nil
}

// latencyKey canonicalizes a LatencyRequest into its resolved parameters
// and cache key.
func (s *Server) latencyKey(req LatencyRequest) (detect.Params, string, error) {
	p, err := req.Scenario.params()
	if err != nil {
		return p, "", err
	}
	key, err := cacheKey("/v1/latency", latencyCanonical{Scenario: echoParams(p), Options: req.Options}, 0)
	return p, key, err
}

// ---- /v1/simulate ----

// FaultSummary echoes the fault-injection accounting of a simulated
// campaign (zero-valued and omitted when no faults were configured).
type FaultSummary struct {
	Generated     int     `json:"generated"`
	Delivered     int     `json:"delivered"`
	Late          int     `json:"late"`
	Lost          int     `json:"lost"`
	Rerouted      int     `json:"rerouted"`
	MeanAliveFrac float64 `json:"mean_alive_frac"`
	ArrivedFrac   float64 `json:"arrived_frac"`
}

// SimulateResponse is the /v1/simulate result.
type SimulateResponse struct {
	Scenario      scenarioEcho  `json:"scenario"`
	Trials        int           `json:"trials"`
	Detections    int           `json:"detections"`
	DetectionProb float64       `json:"detection_prob"`
	CILo          float64       `json:"ci_lo"`
	CIHi          float64       `json:"ci_hi"`
	MeanReports   float64       `json:"mean_reports"`
	Faults        *FaultSummary `json:"faults,omitempty"`
}

type simulateCanonical struct {
	Scenario   scenarioEcho `json:"scenario"`
	Trials     int          `json:"trials"`
	DeadFrac   float64      `json:"dead_frac"`
	CommRange  float64      `json:"comm_range"`
	PerHopLoss float64      `json:"per_hop_loss"`
	HopRetries int          `json:"hop_retries"`
	// RNG is the resolved scheme's canonical spelling ("" for legacy):
	// campaigns under different schemes are different results and must
	// never share a cache entry.
	RNG string `json:"rng,omitempty"`
}

// simConfig translates a SimulateRequest into a simulator configuration.
// Workers is pinned to 1: intra-request parallelism is the admission
// pool's job, and trial results are scheduling-independent anyway.
func (s *Server) simConfig(p detect.Params, req SimulateRequest) (sim.Config, error) {
	if req.Trials < 1 || req.Trials > s.cfg.MaxTrials {
		return sim.Config{}, fmt.Errorf("trials = %d must be in [1, %d]: %w", req.Trials, s.cfg.MaxTrials, ErrRequest)
	}
	if req.DeadFrac < 0 || req.DeadFrac > 1 {
		return sim.Config{}, fmt.Errorf("dead_frac = %v must be in [0, 1]: %w", req.DeadFrac, ErrRequest)
	}
	if req.PerHopLoss < 0 || req.PerHopLoss >= 1 {
		return sim.Config{}, fmt.Errorf("per_hop_loss = %v must be in [0, 1): %w", req.PerHopLoss, ErrRequest)
	}
	if req.HopRetries < 0 {
		return sim.Config{}, fmt.Errorf("hop_retries = %d must be >= 0: %w", req.HopRetries, ErrRequest)
	}
	scheme, err := s.resolveRNG(req.RNG)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		Params:  p,
		Trials:  req.Trials,
		Seed:    req.Seed,
		Workers: 1,
		RNG:     scheme,
	}
	if req.DeadFrac > 0 {
		cfg.Faults = faults.Bernoulli{DeadFrac: req.DeadFrac}
	}
	if req.CommRange > 0 {
		cfg.CommRange = req.CommRange
		cfg.Loss = netsim.LossModel{
			PerHopDelivery: 1 - req.PerHopLoss,
			MaxRetries:     req.HopRetries,
			PerHop:         10 * time.Second,
			Backoff:        5 * time.Second,
			Budget:         p.T,
		}
	}
	return cfg, nil
}

func (s *Server) computeSimulate(ctx context.Context, p detect.Params, req SimulateRequest) (*SimulateResponse, error) {
	cfg, err := s.simConfig(p, req)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	resp := &SimulateResponse{
		Scenario:      echoParams(p),
		Trials:        res.Trials,
		Detections:    res.Detections,
		DetectionProb: res.DetectionProb,
		CILo:          res.CI.Lo,
		CIHi:          res.CI.Hi,
		MeanReports:   res.MeanReports,
	}
	if cfg.Faults != nil || cfg.CommRange > 0 {
		f := res.Faults
		resp.Faults = &FaultSummary{
			Generated: f.Generated, Delivered: f.Delivered,
			Late: f.Late, Lost: f.Lost, Rerouted: f.Rerouted,
			MeanAliveFrac: f.MeanAliveFrac, ArrivedFrac: f.ArrivedFrac(),
		}
	}
	return resp, nil
}

// simulateKey validates a SimulateRequest and returns its resolved
// parameters and cache key. Seed participates through the fingerprint's
// seed slot: campaigns are deterministic per (config, seed), so caching
// them is sound.
func (s *Server) simulateKey(req SimulateRequest) (detect.Params, string, error) {
	p, err := req.Scenario.params()
	if err != nil {
		return p, "", err
	}
	if _, err := s.simConfig(p, req); err != nil {
		return p, "", err
	}
	scheme, err := s.resolveRNG(req.RNG)
	if err != nil {
		return p, "", err
	}
	canon := simulateCanonical{
		Scenario: echoParams(p), Trials: req.Trials,
		DeadFrac: req.DeadFrac, CommRange: req.CommRange,
		PerHopLoss: req.PerHopLoss, HopRetries: req.HopRetries,
		RNG: canonRNG(scheme),
	}
	key, err := cacheKey("/v1/simulate", canon, req.Seed)
	return p, key, err
}

// ---- /v1/experiments/{id} ----

// TableResponse is a rendered experiment table.
type TableResponse struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

type experimentCanonical struct {
	ID     string `json:"id"`
	Quick  bool   `json:"quick"`
	Trials int    `json:"trials"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := experiments.Lookup(id); !ok {
		serveErrors.Inc()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		resp, _ := json.Marshal(map[string]string{"error": fmt.Sprintf("unknown experiment %q", id)})
		w.Write(append(resp, '\n'))
		return
	}
	q := r.URL.Query()
	quick := q.Get("quick") != "0" // interactive default: reduced sweeps
	trials := 0
	if v := q.Get("trials"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > s.cfg.MaxTrials {
			s.writeError(w, fmt.Errorf("trials = %q must be an integer in [0, %d]: %w", v, s.cfg.MaxTrials, ErrRequest))
			return
		}
		trials = n
	}
	seed := int64(1)
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			s.writeError(w, fmt.Errorf("seed = %q must be an integer: %w", v, ErrRequest))
			return
		}
		seed = n
	}
	key, err := cacheKey("/v1/experiments", experimentCanonical{ID: id, Quick: quick, Trials: trials}, seed)
	if err != nil {
		s.writeError(w, err)
		return
	}
	err = s.serveKeyed(w, r, key, "", forward{}, func(ctx context.Context) (any, error) {
		tbl, err := experiments.RunOne(id, experiments.Options{
			Trials:       trials,
			Seed:         seed,
			Quick:        quick,
			SweepWorkers: s.cfg.SweepWorkers,
			Ctx:          ctx,
			Retries:      s.cfg.Retries,
			RetryBackoff: s.cfg.RetryBackoff,
			PointTimeout: s.cfg.PointTimeout,
		})
		if err != nil {
			return nil, err
		}
		return &TableResponse{
			ID: tbl.ID, Title: tbl.Title,
			Columns: tbl.Columns, Rows: tbl.Rows, Notes: tbl.Notes,
		}, nil
	})
	if err != nil {
		s.writeError(w, err)
	}
}
