// Package system is the end-to-end integration of every substrate: sensors
// detect a moving target (and false-alarm), reports travel over the
// multi-hop unit-disk network to a base station with per-hop latency, and
// the base runs the windowed, optionally track-gated group detection rule
// on the reports that actually arrive. The paper analyzes the sensing layer
// in isolation and assumes delivery within one period (Section 4); this
// package simulates the deployed-system view and quantifies when that
// assumption holds — and what detection costs when it does not.
package system

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/sim"
	"github.com/groupdetect/gbd/internal/stats"
	"github.com/groupdetect/gbd/internal/target"
	"github.com/groupdetect/gbd/internal/track"
)

// ErrConfig reports an invalid system configuration.
var ErrConfig = errors.New("system: invalid configuration")

// ErrNoTrack reports failure to place a confined track. It is
// target.ErrConfinement, the sentinel sim.ErrConfinement also names.
var ErrNoTrack = target.ErrConfinement

// Config describes the full deployed system.
type Config struct {
	// Params is the sensing scenario (field, sensors, target, K-of-M rule).
	Params detect.Params
	// CommRange is the radio range for the unit-disk communication graph.
	CommRange float64
	// PerHop is the per-hop forwarding latency.
	PerHop time.Duration
	// FalseAlarmP is the per-sensor per-period false alarm probability.
	FalseAlarmP float64
	// Gated applies the kinematic track-consistency filter at the base;
	// ungated counts raw reports per window (the rule the analysis models).
	Gated bool
	// Model generates target tracks; nil means straight-line at V.
	Model target.Model
	// Trials and Seed control the campaign.
	Trials int
	Seed   int64
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
}

func (c Config) validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	// The sensing knobs (trials, workers, false alarms) are sim.Config's
	// and validated there.
	switch {
	case c.CommRange <= 0:
		return fmt.Errorf("comm range %v: %w", c.CommRange, ErrConfig)
	case c.PerHop <= 0:
		return fmt.Errorf("per-hop latency %v: %w", c.PerHop, ErrConfig)
	}
	return nil
}

// Result aggregates an end-to-end campaign.
type Result struct {
	// Trials and Detections count trials and base-station detections.
	Trials, Detections int
	// DetectionProb is the end-to-end detection probability; CI its 95%
	// Wilson interval.
	DetectionProb float64
	CI            stats.Interval
	// DeliveredFrac is the fraction of generated reports that reached the
	// base within the observation window.
	DeliveredFrac float64
	// MeanDeliveryPeriods is the average delivery delay in whole sensing
	// periods (0 means within the generating period — the paper's
	// assumption).
	MeanDeliveryPeriods float64
	// DecisionLatency is the distribution, over detected trials, of the
	// period at which the base declared the detection.
	DecisionLatency stats.Histogram
}

// partial is one worker's share of the campaign's aggregation, plus the
// routing table the worker re-aims at every trial's deployment.
type partial struct {
	detections                   int
	generated, delivered, delays int
	latency                      stats.Histogram
	routing                      *netsim.Routing
}

// Run simulates the full pipeline.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run under a context: cancellation stops every worker within a
// bounded number of trials and returns ctx.Err(). A completing run is
// bit-identical to Run (the context never touches trial mechanics).
//
// The sensing layer is sim's trial kernel under the legacy scheme: its
// deploy, track, sense and (with FalseAlarmP) false-alarm stages make
// every random draw. This package adds only the base station's side —
// hop-latency delivery over the unit-disk network and the windowed,
// optionally gated decision — which draws nothing.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := cfg.Params
	gate, err := track.NewGate(p.V, p.T, p.Rs)
	if err != nil {
		return nil, err
	}
	parts, err := sim.Visit(ctx, sim.Config{
		Params:      p,
		Model:       cfg.Model,
		Trials:      cfg.Trials,
		Seed:        cfg.Seed,
		Workers:     cfg.Workers,
		FalseAlarmP: cfg.FalseAlarmP,
	}, func(part *partial, tr sim.Trial) error {
		return part.add(cfg, gate, tr)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Trials: cfg.Trials}
	var generated, delivered, delaySum int
	for i := range parts {
		res.Detections += parts[i].detections
		generated += parts[i].generated
		delivered += parts[i].delivered
		delaySum += parts[i].delays
		res.DecisionLatency.Merge(&parts[i].latency)
	}
	res.DetectionProb = float64(res.Detections) / float64(res.Trials)
	ci, err := stats.WilsonInterval(res.Detections, res.Trials, 1.96)
	if err != nil {
		return nil, err
	}
	res.CI = ci
	if generated > 0 {
		res.DeliveredFrac = float64(delivered) / float64(generated)
	}
	if delivered > 0 {
		res.MeanDeliveryPeriods = float64(delaySum) / float64(delivered)
	}
	return res, nil
}

// add runs the base station's side of one trial: every generated report
// travels the shortest hop path to the base at the node nearest the field
// center, arriving after its hop latency, and the base evaluates the rule
// at the end of each period on everything that has arrived so far.
func (part *partial) add(cfg Config, gate track.Gate, tr sim.Trial) error {
	p := cfg.Params
	sensors := tr.Sensors
	base := geom.Nearest(sensors, geom.Point{X: p.FieldSide / 2, Y: p.FieldSide / 2})
	if part.routing == nil {
		part.routing = new(netsim.Routing)
	}
	if err := part.routing.Rebuild(sensors, cfg.CommRange, geom.Square(p.FieldSide), base); err != nil {
		return err
	}

	// arrivals[period] lists reports the base receives during that period.
	arrivals := make([][]track.Report, p.M+1)
	for _, r := range tr.Reports {
		part.generated++
		hops, err := part.routing.Hops(r.Sensor)
		if err != nil {
			return err
		}
		if hops < 0 {
			continue // reporter disconnected from the base
		}
		// Whole-period delay: a report forwarded within its own period
		// (hops*PerHop <= T) arrives with zero period delay, matching the
		// paper's assumption when it holds.
		delay := int(math.Ceil(float64(time.Duration(hops)*cfg.PerHop) / float64(p.T)))
		if delay > 0 {
			delay--
		}
		at := r.Period + delay
		if at > p.M {
			continue // too late for the decision window
		}
		arrivals[at] = append(arrivals[at], track.Report{Sensor: r.Sensor, Pos: sensors[r.Sensor], Period: r.Period})
		part.delivered++
		part.delays += at - r.Period
	}

	var inbox []track.Report
	for period := 1; period <= p.M; period++ {
		inbox = append(inbox, arrivals[period]...)
		if len(inbox) < p.K {
			continue
		}
		dec, err := track.Decide(inbox, p.K, p.M, gate, cfg.Gated)
		if err != nil {
			return err
		}
		if dec.Detected {
			part.detections++
			return part.latency.Add(period)
		}
	}
	return nil
}
