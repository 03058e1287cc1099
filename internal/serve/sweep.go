// The /v1/sweep handler: one scenario parameter swept over explicit
// values, executed through internal/sweep.Run (the same fault-tolerant
// engine behind gbd-experiments and gbd-faults) and streamed back as
// NDJSON rows in input order. Every row resolves exactly as the
// equivalent sweep_point batch item does — the table plan, the cache,
// owner forwarding and singleflight — so a repeated or overlapping sweep
// reuses rows instead of recomputing them. The stream holds one
// admission slot for its whole duration, so sweeps cannot starve
// interactive requests beyond the configured pool.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/experiments"
	"github.com/groupdetect/gbd/internal/sim"
	"github.com/groupdetect/gbd/internal/sweep"
)

// SweepRow is one NDJSON line of a /v1/sweep stream. Exactly one row is
// emitted per requested value, in input order: a successful point carries
// the analysis (and, with trials > 0, simulation) columns; a failed or
// skipped point carries Error instead.
type SweepRow struct {
	Index      int       `json:"index"`
	Axis       SweepAxis `json:"axis"`
	Value      float64   `json:"value"`
	Analysis   *float64  `json:"analysis,omitempty"`
	Simulation *float64  `json:"simulation,omitempty"`
	CILo       *float64  `json:"ci_lo,omitempty"`
	CIHi       *float64  `json:"ci_hi,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// validAxis is the sweepable-axis whitelist shared by /v1/sweep and the
// sweep_point batch op.
func validAxis(axis SweepAxis) error {
	switch axis {
	case AxisN, AxisV, AxisK, AxisM, AxisPd, AxisDeadFrac:
		return nil
	}
	return fmt.Errorf("axis = %q must be one of n, v, k, m, pd, dead_frac: %w", axis, ErrRequest)
}

// validateSweep checks the request envelope before any streaming starts,
// so envelope problems still surface as a proper 4xx, and returns the
// base scenario. A row beyond the work bounds fails the whole sweep with
// ErrTooLarge before any row is computed.
func (s *Server) validateSweep(req SweepRequest) (detect.Params, error) {
	var base detect.Params
	if err := validAxis(req.Axis); err != nil {
		return base, err
	}
	if len(req.Values) < 1 || len(req.Values) > s.cfg.MaxSweepPoints {
		return base, fmt.Errorf("values must hold between 1 and %d points, got %d: %w", s.cfg.MaxSweepPoints, len(req.Values), ErrRequest)
	}
	if req.Trials < 0 || req.Trials > s.cfg.MaxTrials {
		return base, fmt.Errorf("trials = %d must be in [0, %d]: %w", req.Trials, s.cfg.MaxTrials, ErrRequest)
	}
	if req.Retries != nil && *req.Retries < 0 {
		return base, fmt.Errorf("retries = %d must be >= 0: %w", *req.Retries, ErrRequest)
	}
	if req.RetryBackoffMS < 0 || req.PointTimeoutMS < 0 {
		return base, fmt.Errorf("retry_backoff_ms and point_timeout_ms must be >= 0: %w", ErrRequest)
	}
	if req.IndexBase < 0 {
		return base, fmt.Errorf("index_base = %d must be >= 0: %w", req.IndexBase, ErrRequest)
	}
	if req.HeartbeatMS < 0 {
		return base, fmt.Errorf("heartbeat_ms = %d must be >= 0: %w", req.HeartbeatMS, ErrRequest)
	}
	if _, err := s.resolveRNG(req.RNG); err != nil {
		return base, err
	}
	base, err := resolveScenario(req.Scenario)
	if err != nil {
		return base, err
	}
	for _, v := range req.Values {
		if err := checkRowSize(base, req.Axis, v); err != nil {
			return base, err
		}
	}
	return base, nil
}

// heartbeatInterval resolves the stream's keep-alive period. Heartbeats
// are strictly opt-in: a stream emits `{"hb":true}` rows only when the
// request set heartbeat_ms, so a plain sweep stream carries result and
// error rows exclusively and naive consumers need no filtering.
func heartbeatInterval(req SweepRequest) time.Duration {
	if req.HeartbeatMS > 0 {
		return time.Duration(req.HeartbeatMS) * time.Millisecond
	}
	return 0
}

// sweepPolicy resolves the request's fault policy against the server
// defaults into sweep.Options.
func (s *Server) sweepPolicy(req SweepRequest) sweep.Options {
	opt := s.cfg.Sweep
	opt.Degrade = req.KeepGoing
	if req.Retries != nil {
		opt.Retries = *req.Retries
	}
	if req.RetryBackoffMS > 0 {
		opt.Backoff = time.Duration(req.RetryBackoffMS) * time.Millisecond
	}
	if req.PointTimeoutMS > 0 {
		opt.PointTimeout = time.Duration(req.PointTimeoutMS) * time.Millisecond
	}
	return opt
}

// applyAxis returns the scenario at one sweep value. Integer axes reject
// fractional values instead of truncating them silently.
func applyAxis(p detect.Params, axis SweepAxis, v float64) (detect.Params, error) {
	intVal := func(name string) (int, error) {
		if v != math.Trunc(v) || math.Abs(v) > 1e9 {
			return 0, fmt.Errorf("%s = %v must be an integer: %w", name, v, ErrRequest)
		}
		return int(v), nil
	}
	switch axis {
	case AxisN:
		n, err := intVal("n")
		if err != nil {
			return p, err
		}
		p.N = n
	case AxisV:
		p.V = v
	case AxisK:
		k, err := intVal("k")
		if err != nil {
			return p, err
		}
		p.K = k
	case AxisM:
		m, err := intVal("m")
		if err != nil {
			return p, err
		}
		p.M = m
	case AxisPd:
		p.Pd = v
	case AxisDeadFrac:
		// The death fraction is folded in by sweepPoint, not the scenario.
	}
	return p, p.Validate()
}

// checkRowSize checks the scenario of the sweep row at value v against
// the work bounds. A value the axis rejects is left to the row's own
// error.
func checkRowSize(base detect.Params, axis SweepAxis, v float64) error {
	p, err := applyAxis(base, axis, v)
	if err := bounded(p, err); errors.Is(err, ErrTooLarge) {
		return err
	}
	return nil
}

// sweepPoint computes one row: the analytical detection probability at
// the point's scenario, plus a Monte Carlo column when trials > 0. A
// dead_frac row is experiments.DeadFracPoint, the dead-fraction row every
// front end shares.
func (s *Server) sweepPoint(ctx context.Context, base detect.Params, req SweepPointRequest) (SweepRow, error) {
	row := SweepRow{Index: req.Index, Axis: req.Axis, Value: req.Value}
	p, err := applyAxis(base, req.Axis, req.Value)
	if err != nil {
		return row, err
	}
	scheme, err := s.resolveRNG(req.RNG)
	if err != nil {
		return row, err
	}
	cfg := sim.Config{Params: p, Trials: req.Trials, Seed: req.Seed, Workers: 1, RNG: scheme}
	opt := req.Options.msOptions()
	if req.Axis == AxisDeadFrac {
		pt, err := experiments.DeadFracPoint(ctx, cfg, req.Value, opt)
		if err != nil {
			return row, err
		}
		row.Analysis = &pt.Ana
		if req.Trials > 0 {
			row.Simulation, row.CILo, row.CIHi = &pt.Sim, &pt.CILo, &pt.CIHi
		}
		return row, nil
	}
	ana, err := gbd.AnalyzeCtx(ctx, p, opt)
	if err != nil {
		return row, err
	}
	prob := ana.DetectionProb
	row.Analysis = &prob
	if req.Trials > 0 {
		res, err := sim.RunCtx(ctx, cfg)
		if err != nil {
			return row, err
		}
		simProb, lo, hi := res.DetectionProb, res.CI.Lo, res.CI.Hi
		row.Simulation, row.CILo, row.CIHi = &simProb, &lo, &hi
	}
	return row, nil
}

// sweepPointOp is the table entry every /v1/sweep row resolves through.
var sweepPointOp = endpointFor("sweep_point")

// point is the sweep_point request for row i of the stream: the
// stream's scenario and campaign fields at value i, echoing the global
// index index_base + i.
func (req *SweepRequest) point(i int) SweepPointRequest {
	return SweepPointRequest{
		Scenario: req.Scenario, Options: req.Options, Axis: req.Axis,
		Value: req.Values[i], Index: req.IndexBase + i,
		Trials: req.Trials, Seed: req.Seed, RNG: req.RNG,
	}
}

// planRow plans row i exactly as the equivalent sweep_point batch item:
// the request body req.point(i), resolved through the op's table plan.
// The returned forward replays that body at the key's owner as a
// one-item batch.
func (s *Server) planRow(req *SweepRequest, i int) (forward, string, computeFunc, error) {
	body, err := json.Marshal(req.point(i))
	if err != nil {
		return forward{}, "", nil, fmt.Errorf("serve: marshal sweep point: %w", err)
	}
	key, compute, err := sweepPointOp.plan(s, body)
	return forward{e: sweepPointOp, body: body, batch: true}, key, compute, err
}

// sweepRow renders row i: a cache hit or a forward to the key's owner,
// else a deduplicated local compute that caches its bytes. A failed row
// returns its error and caches nothing.
func (s *Server) sweepRow(ctx context.Context, r *http.Request, req *SweepRequest, i int) ([]byte, error) {
	fwd, key, compute, err := s.planRow(req, i)
	if err != nil {
		return nil, err
	}
	if line, _, ok := s.lookup(r, key, "", fwd); ok {
		return line, nil
	}
	line, err, _ := s.flight.do(ctx, key, func() ([]byte, error) {
		return s.renderCompute(ctx, key, "", compute)
	})
	return line, err
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if _, err := s.validateSweep(req); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	release, err := s.adm.acquire(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()

	sweepStreams.Inc()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)

	// Points stream through a buffered channel as they complete (in any
	// order); the emitter below restores input order. The buffer holds
	// every point, so workers never block on a slow client.
	type indexed struct {
		i    int
		line []byte
	}
	ch := make(chan indexed, len(req.Values))
	var rep *sweep.Report[[]byte]
	go func() {
		// rep is written before close(ch); the channel close is the
		// happens-before edge that publishes it to the emitter.
		rep, _ = sweep.Run(ctx, s.sweepPolicy(req), req.Values,
			func(ctx context.Context, i int, _ float64) ([]byte, error) {
				line, err := s.sweepRow(ctx, r, &req, i)
				if err != nil {
					return nil, err
				}
				ch <- indexed{i, line}
				return line, nil
			})
		close(ch)
	}()

	emit := func(line []byte) {
		w.Write(line)
		sweepRows.Inc()
		if flusher != nil {
			flusher.Flush()
		}
	}
	// While no data row is ready, keep-alive heartbeats hold the stream
	// open through slow points: proxies and client idle timeouts see
	// bytes, and a sweep coordinator's stall detector can tell "worker
	// still computing" from "worker dead". Heartbeats only ever appear
	// between data rows (one goroutine writes), never inside one.
	hbLine, _ := json.Marshal(Heartbeat{HB: true})
	hbLine = append(hbLine, '\n')
	var hbC <-chan time.Time
	if d := heartbeatInterval(req); d > 0 {
		ticker := time.NewTicker(d)
		defer ticker.Stop()
		hbC = ticker.C
	}
	pending := make(map[int][]byte)
	next := 0
	for ch != nil {
		select {
		case ir, ok := <-ch:
			if !ok {
				ch = nil
				continue
			}
			pending[ir.i] = ir.line
			for {
				line, ok := pending[next]
				if !ok {
					break
				}
				emit(line)
				delete(pending, next)
				next++
			}
		case <-hbC:
			w.Write(hbLine)
			sweepHeartbeats.Inc()
			if flusher != nil {
				flusher.Flush()
			}
		}
	}

	// The sweep has landed. Emit the tail in order: successes that were
	// stuck behind a failed point, then an error row per failed point and
	// a skipped row per point the engine never dispatched — exactly one
	// row per requested value either way.
	failed := make(map[int]*sweep.PointError)
	for _, pe := range rep.Failed {
		failed[pe.Index] = pe
	}
	for ; next < len(req.Values); next++ {
		if line, ok := pending[next]; ok {
			emit(line)
			delete(pending, next)
			continue
		}
		row := SweepRow{Index: req.IndexBase + next, Axis: req.Axis, Value: req.Values[next]}
		switch {
		case failed[next] != nil:
			row.Error = failed[next].Err.Error()
		case ctx.Err() != nil:
			row.Error = "skipped: " + ctx.Err().Error()
		default:
			row.Error = "skipped: sweep stopped at an earlier failure"
		}
		line, _ := json.Marshal(row)
		emit(append(line, '\n'))
	}
}
