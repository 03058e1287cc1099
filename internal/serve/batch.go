// The /v1/batch handler: many analysis/simulation points in one request,
// answered as an NDJSON stream with one line per item in input order.
// Each line is bit-identical to the item's standalone /v1/* response — a
// batch item and the equivalent single request render through the same
// renderCompute path and read/populate the same cache keys, so warming
// the cache through one surface warms it for the other.
//
// The batch holds at most ONE admission slot (acquired only when some
// item actually computes locally), the same discipline as a sweep stream:
// a 256-item batch costs the pool one worker, not 256, and a shed batch
// is a single 429/503 with Retry-After before any line is written.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/groupdetect/gbd/internal/detect"
)

// BatchRequest is the /v1/batch body: an ordered list of operations.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItem is one batch operation: an op name and the op's standalone
// request body (the same JSON that POST /v1/<op> accepts; "sweep_point"
// takes a SweepPointRequest).
type BatchItem struct {
	Op      string          `json:"op"`
	Request json.RawMessage `json:"request"`
}

// SweepPointRequest is the "sweep_point" batch op: one point of a
// /v1/sweep grid as an individually cacheable item. Its rendered line is
// byte-identical to the SweepRow the streaming endpoint would emit for
// the same point, so a coordinator may fetch a shard as a batch and
// still merge rows byte-identically with a single-machine stream. Index
// is the campaign-global row index to echo (the stream's index_base + i).
type SweepPointRequest struct {
	Scenario Scenario       `json:"scenario"`
	Options  AnalyzeOptions `json:"options,omitempty"`
	Axis     SweepAxis      `json:"axis"`
	Value    float64        `json:"value"`
	Index    int            `json:"index,omitempty"`
	Trials   int            `json:"trials,omitempty"`
	Seed     int64          `json:"seed,omitempty"`
	RNG      string         `json:"rng,omitempty"`
}

// sweepPointCanonical is the fingerprinted form of a SweepPointRequest.
// Index participates: the row's bytes echo it, and cached bytes must be
// exact.
type sweepPointCanonical struct {
	Scenario scenarioEcho   `json:"scenario"`
	Options  AnalyzeOptions `json:"options"`
	Axis     SweepAxis      `json:"axis"`
	Value    float64        `json:"value"`
	Index    int            `json:"index"`
	Trials   int            `json:"trials"`
	RNG      string         `json:"rng,omitempty"`
}

// sweepPointKey validates a SweepPointRequest and returns its base
// parameters and cache key.
func (s *Server) sweepPointKey(req SweepPointRequest) (detect.Params, string, error) {
	var p detect.Params
	if err := validAxis(req.Axis); err != nil {
		return p, "", err
	}
	if req.Trials < 0 || req.Trials > s.cfg.MaxTrials {
		return p, "", fmt.Errorf("trials = %d must be in [0, %d]: %w", req.Trials, s.cfg.MaxTrials, ErrRequest)
	}
	if req.Index < 0 {
		return p, "", fmt.Errorf("index = %d must be >= 0: %w", req.Index, ErrRequest)
	}
	p, err := req.Scenario.params()
	if err != nil {
		return p, "", err
	}
	scheme, err := s.resolveRNG(req.RNG)
	if err != nil {
		return p, "", err
	}
	canon := sweepPointCanonical{
		Scenario: echoParams(p), Options: req.Options,
		Axis: req.Axis, Value: req.Value, Index: req.Index,
		Trials: req.Trials, RNG: canonRNG(scheme),
	}
	key, err := cacheKey("/v1/batch/sweep_point", canon, req.Seed)
	return p, key, err
}

// sweep is the one-point SweepRequest a sweep_point renders through: the
// same SweepRow the streaming endpoint marshals, with IndexBase carrying
// the global index.
func (req *SweepPointRequest) sweep() SweepRequest {
	return SweepRequest{
		Scenario: req.Scenario, Options: req.Options, Axis: req.Axis,
		Trials: req.Trials, Seed: req.Seed, RNG: req.RNG,
		IndexBase: req.Index,
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Items) < 1 {
		s.writeError(w, fmt.Errorf("items must hold at least one operation: %w", ErrRequest))
		return
	}
	// Overflow is 413, not 400: the items are not wrong, there are just
	// too many of them — clients split the batch and retry.
	if n := len(req.Items); n > s.cfg.MaxBatchItems {
		s.writeError(w, fmt.Errorf("items holds %d operations, limit %d: %w", n, s.cfg.MaxBatchItems, ErrTooLarge))
		return
	}
	batchRequests.Inc()
	batchItems.Add(uint64(len(req.Items)))

	// Classification pass: every item resolves through the endpoint table
	// to hit, forward, miss, or error before any compute runs, so the
	// aggregate X-Cache header can precede the stream. A compute that
	// later fails still lands as an in-band error line; the header
	// reflects lookup-time classification.
	type itemState struct {
		e       *endpoint
		key     string
		compute computeFunc
		body    []byte
		err     error
	}
	states := make([]itemState, len(req.Items))
	var hits, misses, forwards, errs int
	for i, it := range req.Items {
		st := &states[i]
		st.e = endpointFor(it.Op)
		if st.e != nil {
			st.e.requests.Inc()
		}
		switch {
		case len(it.Request) == 0:
			st.err = fmt.Errorf("batch item %q missing request: %w", it.Op, ErrRequest)
		case st.e == nil:
			st.err = fmt.Errorf("op = %q must be one of %s: %w", it.Op, opNames, ErrRequest)
		default:
			st.key, st.compute, st.err = st.e.plan(s, it.Request)
		}
		if st.err != nil {
			errs++
			continue
		}
		// A forwarded item replays at its owner as a one-item batch — the
		// one shape every op, sweep_point included, can take.
		body, source, ok := s.lookup(r, st.key, "", forward{e: st.e, body: it.Request, batch: true})
		switch {
		case !ok:
			misses++
		case source == "hit":
			hits++
		default:
			forwards++
		}
		st.body = body
	}

	// One admission slot covers every local compute in the batch, acquired
	// before the header so a shed batch is a clean 429/503 + Retry-After.
	// An all-hit (or all-forward) batch never touches the pool.
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if misses > 0 {
		release, err := s.adm.acquire(ctx)
		if err != nil {
			s.writeError(w, err)
			return
		}
		defer release()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cache", fmt.Sprintf("hit=%d,miss=%d,forward=%d,error=%d", hits, misses, forwards, errs))
	flusher, _ := w.(http.Flusher)
	for i := range states {
		st := &states[i]
		line := st.body
		if line == nil && st.err == nil {
			// Singleflight still dedups against standalone requests and
			// other batches; the fn holds this batch's slot, never a
			// second one.
			line, st.err, _ = s.flight.do(st.key, func() ([]byte, error) {
				return s.renderCompute(ctx, st.key, "", st.compute)
			})
		}
		if st.err != nil {
			if st.e != nil {
				st.e.errors.Inc()
			}
			line = errorBody(st.err)
		}
		w.Write(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
}
