// The /v1/batch handler: many analysis/simulation points in one request,
// answered as an NDJSON stream with one line per item in input order.
// Each line is bit-identical to the item's standalone /v1/* response: an
// item takes the standalone hit path (resolve: the raw-body digest alias,
// scoped for the routeless sweep_point by its /v1/batch/sweep_point key
// prefix, then the canonical key) and renders through the same
// renderCompute, so warming the cache through one surface warms it for
// the other.
//
// The batch holds at most ONE admission slot (acquired only when some
// item actually computes locally), the same discipline as a sweep stream:
// a 256-item batch costs the pool one worker, not 256, and a shed batch
// is a single 429/503 with Retry-After before any line is written. Held
// lines are flushed only before a line that must compute, so an all-hit
// batch leaves as one write with a Content-Length.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/scenario"
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

// SweepPointRequest is the "sweep_point" op: one point of a /v1/sweep
// grid as an individually cacheable item. Every /v1/sweep row is planned
// as one (SweepRequest.point), so the batch item and the stream row share
// a cache key and bytes. Index is the campaign-global row index to echo
// (the stream's index_base + i).
type SweepPointRequest struct {
	Scenario scenario.Scenario `json:"scenario"`
	Options  AnalyzeOptions    `json:"options,omitempty"`
	Axis     SweepAxis         `json:"axis"`
	Value    float64           `json:"value"`
	Index    int               `json:"index,omitempty"`
	Trials   int               `json:"trials,omitempty"`
	Seed     int64             `json:"seed,omitempty"`
	RNG      string            `json:"rng,omitempty"`
}

// sweepPointCanonical is the fingerprinted form of a SweepPointRequest.
// Index participates: the row's bytes echo it, and cached bytes must be
// exact.
type sweepPointCanonical struct {
	Scenario scenario.Echo  `json:"scenario"`
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
	p, err := resolveScenario(req.Scenario)
	if err != nil {
		return p, "", err
	}
	if err := checkRowSize(p, req.Axis, req.Value); err != nil {
		return p, "", err
	}
	scheme, err := s.resolveRNG(req.RNG)
	if err != nil {
		return p, "", err
	}
	canon := sweepPointCanonical{
		Scenario: scenario.NewEcho(p), Options: req.Options,
		Axis: req.Axis, Value: req.Value, Index: req.Index,
		Trials: req.Trials, RNG: scheme.Canonical(),
	}
	key, err := cacheKey("/v1/batch/sweep_point", canon, req.Seed)
	return p, key, err
}

// validateBatch checks the request envelope before any item is planned.
// Overflow is 413, not 400: the items are not wrong, there are just too
// many of them — clients split the batch and retry.
func (s *Server) validateBatch(req BatchRequest) error {
	if len(req.Items) < 1 {
		return fmt.Errorf("items must hold at least one operation: %w", ErrRequest)
	}
	if n := len(req.Items); n > s.cfg.MaxBatchItems {
		return fmt.Errorf("items holds %d operations, limit %d: %w", n, s.cfg.MaxBatchItems, ErrTooLarge)
	}
	return nil
}

// resolveItem resolves one batch item through the endpoint table and
// the standalone hit path, assembling the op's digest scope and the item
// bytes in sc. An unknown op or a missing request is the item's in-band
// error.
func (s *Server) resolveItem(r *http.Request, it BatchItem, sc *bodyScratch) resolved {
	e := endpointFor(it.Op)
	switch {
	case len(it.Request) == 0:
		return resolved{e: e, err: fmt.Errorf("batch item %q missing request: %w", it.Op, ErrRequest)}
	case e == nil:
		return resolved{err: fmt.Errorf("op = %q must be one of %s: %w", it.Op, opNames, ErrRequest)}
	}
	sc.buf = append(append(sc.buf[:0], e.scope...), it.Request...)
	return s.resolve(r, e, sc.buf, true)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := s.validateBatch(req); err != nil {
		s.writeError(w, err)
		return
	}
	batchRequests.Inc()
	batchItems.Add(uint64(len(req.Items)))

	// Classification pass: every item resolves to hit, forward, miss, or
	// error before any compute runs, so the aggregate X-Cache header can
	// precede the stream. A compute that later fails still lands as an
	// in-band error line; the header reflects lookup-time classification.
	items := make([]resolved, len(req.Items))
	var hits, misses, forwards, errs int
	sc := bodyPool.Get().(*bodyScratch)
	for i, it := range req.Items {
		st := &items[i]
		*st = s.resolveItem(r, it, sc)
		if st.e != nil {
			st.e.requests.Inc()
		}
		switch {
		case st.err != nil:
			errs++
			if st.e != nil {
				st.e.errors.Inc()
			}
			st.body = errorBody(st.err)
		case st.body == nil:
			misses++
		case st.source == "hit":
			hits++
		default:
			forwards++
		}
	}
	bodyPool.Put(sc)

	// One admission slot covers every local compute in the batch, acquired
	// before the header so a shed batch is a clean 429/503 + Retry-After.
	// An all-hit (or all-forward) batch never touches the pool.
	var ctx context.Context
	if misses > 0 {
		var cancel context.CancelFunc
		ctx, cancel = s.requestCtx(r)
		defer cancel()
		release, err := s.adm.acquire(ctx)
		if err != nil {
			s.writeError(w, err)
			return
		}
		defer release()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cache", fmt.Sprintf("hit=%d,miss=%d,forward=%d,error=%d", hits, misses, forwards, errs))
	if misses == 0 {
		n := 0
		for _, it := range items {
			n += len(it.body)
		}
		w.Header().Set("Content-Length", strconv.Itoa(n))
	}
	// Held lines are buffered as they come; a line that must compute first
	// flushes the lines before it. Singleflight still dedups against other
	// requests; the fn holds this batch's slot, never a second one. A miss
	// that repeats an earlier item's key reuses that item's line: its
	// flight has landed by then, so flight.do would compute it again.
	flusher, _ := w.(http.Flusher)
	var first map[string]int // key -> index of the item that computed it
	for i := range items {
		st := &items[i]
		if st.body == nil {
			if j, ok := first[st.key]; ok {
				st.body, st.err = items[j].body, items[j].err
			} else {
				if flusher != nil && i > 0 {
					flusher.Flush()
				}
				st.body, st.err, _ = s.flight.do(ctx, st.key, func() ([]byte, error) {
					return s.renderCompute(ctx, st.key, st.alias, st.compute)
				})
				if first == nil {
					first = make(map[string]int)
				}
				first[st.key] = i
			}
			if st.err != nil {
				st.e.errors.Inc()
				st.body = errorBody(st.err)
			}
		}
		w.Write(st.body)
	}
}
