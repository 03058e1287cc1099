// The /v1/sweep handler: one scenario parameter swept over explicit
// values, executed through internal/sweep.Run (the same fault-tolerant
// engine behind gbd-experiments and gbd-faults) and streamed back as
// NDJSON rows in input order. Streams are not cached — they are cheap to
// recompute relative to holding arbitrarily large bodies — but they do
// hold one admission slot for their whole duration, so sweeps cannot
// starve interactive requests beyond the configured pool.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
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
// so envelope problems still surface as a proper 400.
func (s *Server) validateSweep(req SweepRequest) error {
	if err := validAxis(req.Axis); err != nil {
		return err
	}
	if len(req.Values) < 1 || len(req.Values) > s.cfg.MaxSweepPoints {
		return fmt.Errorf("values must hold between 1 and %d points, got %d: %w", s.cfg.MaxSweepPoints, len(req.Values), ErrRequest)
	}
	if req.Trials < 0 || req.Trials > s.cfg.MaxTrials {
		return fmt.Errorf("trials = %d must be in [0, %d]: %w", req.Trials, s.cfg.MaxTrials, ErrRequest)
	}
	if req.Retries != nil && *req.Retries < 0 {
		return fmt.Errorf("retries = %d must be >= 0: %w", *req.Retries, ErrRequest)
	}
	if req.RetryBackoffMS < 0 || req.PointTimeoutMS < 0 {
		return fmt.Errorf("retry_backoff_ms and point_timeout_ms must be >= 0: %w", ErrRequest)
	}
	if req.IndexBase < 0 {
		return fmt.Errorf("index_base = %d must be >= 0: %w", req.IndexBase, ErrRequest)
	}
	if req.HeartbeatMS < 0 {
		return fmt.Errorf("heartbeat_ms = %d must be >= 0: %w", req.HeartbeatMS, ErrRequest)
	}
	if _, err := s.resolveRNG(req.RNG); err != nil {
		return err
	}
	return nil
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
	opt := sweep.Options{
		Workers:      s.cfg.SweepWorkers,
		Retries:      s.cfg.Retries,
		Backoff:      s.cfg.RetryBackoff,
		PointTimeout: s.cfg.PointTimeout,
		Degrade:      req.KeepGoing,
	}
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

// sweepPoint computes one row: the analytical detection probability at
// the point's scenario, plus a Monte Carlo column when trials > 0.
func (s *Server) sweepPoint(ctx context.Context, base detect.Params, req SweepRequest, i int, v float64) (SweepRow, error) {
	row := SweepRow{Index: req.IndexBase + i, Axis: req.Axis, Value: v}
	p, err := applyAxis(base, req.Axis, v)
	if err != nil {
		return row, err
	}
	opt := req.Options.msOptions()
	var ana *detect.MSResult
	if req.Axis == AxisDeadFrac {
		ana, err = detect.Degraded(p, v, 1, opt)
	} else {
		ana, err = gbd.AnalyzeCtx(ctx, p, opt)
	}
	if err != nil {
		return row, err
	}
	prob := ana.DetectionProb
	row.Analysis = &prob
	if req.Trials > 0 {
		scheme, err := s.resolveRNG(req.RNG)
		if err != nil {
			return row, err
		}
		cfg := sim.Config{Params: p, Trials: req.Trials, Seed: req.Seed, Workers: 1, RNG: scheme}
		if req.Axis == AxisDeadFrac {
			cfg.Faults = faults.Bernoulli{DeadFrac: v}
		}
		res, err := sim.RunCtx(ctx, cfg)
		if err != nil {
			return row, err
		}
		simProb, lo, hi := res.DetectionProb, res.CI.Lo, res.CI.Hi
		row.Simulation, row.CILo, row.CIHi = &simProb, &lo, &hi
	}
	return row, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := s.validateSweep(req); err != nil {
		s.writeError(w, err)
		return
	}
	base, err := req.Scenario.params()
	if err != nil {
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
		i   int
		row SweepRow
	}
	ch := make(chan indexed, len(req.Values))
	var rep *sweep.Report[SweepRow]
	go func() {
		// rep is written before close(ch); the channel close is the
		// happens-before edge that publishes it to the emitter.
		rep, _ = sweep.Run(ctx, s.sweepPolicy(req), req.Values,
			func(ctx context.Context, i int, v float64) (SweepRow, error) {
				row, err := s.sweepPoint(ctx, base, req, i, v)
				if err != nil {
					return row, err
				}
				ch <- indexed{i, row}
				return row, nil
			})
		close(ch)
	}()

	enc := json.NewEncoder(w)
	emit := func(row SweepRow) {
		enc.Encode(row)
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
	pending := make(map[int]SweepRow)
	next := 0
	for ch != nil {
		select {
		case ir, ok := <-ch:
			if !ok {
				ch = nil
				continue
			}
			pending[ir.i] = ir.row
			for {
				row, ok := pending[next]
				if !ok {
					break
				}
				emit(row)
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
		if row, ok := pending[next]; ok {
			emit(row)
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
		emit(row)
	}
}
