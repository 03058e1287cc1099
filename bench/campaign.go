package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/infer"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/sim"
)

// setupRounds is how many times a run builds its fixture; setup_s is the
// median. The first round also pays the process's cold caches.
const setupRounds = 9

// minReps is the fewest timed campaign repetitions a run makes, however
// short --seconds is, so the medians have a middle.
const minReps = 3

// warmupDiv is how much lighter than a timed repetition each warm-up
// repetition is: it fills every lazy cache and pool a point touches at a
// tenth of the trials.
const warmupDiv = 10

// campaignPoint is one point of a campaign: the simulator configuration
// and, for the Fig. 9(a) grid, the analysis run next to it.
type campaignPoint struct {
	label   string
	cfg     sim.Config
	analyze bool
}

// campaignSpec is a closed-loop campaign workload: its points and the
// check of one repetition.
type campaignSpec struct {
	points []campaignPoint
	check  func(pts []campaignPoint, res []pointResult, r *report)
}

// pointResult is one executed point.
type pointResult struct {
	ana    *detect.MSResult
	res    *sim.Result
	dur    time.Duration // analysis plus simulation
	simDur time.Duration
}

// pointSeed derives point i's simulator seed from the workload seed
// (splitmix64), so points are independent streams and the same --seed
// always gives the same campaign.
func pointSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// fig9aAnalysis is the truncation the paper's Fig. 9(a) curves use.
var fig9aAnalysis = detect.MSOptions{Gh: 3, G: 3}

// fig9aCampaign is Fig. 9(a) at paper scale: N = ns × V = vs, each point
// trials philox trials (the batch engine) next to the M-S analysis.
func fig9aCampaign(seed int64, ns []int, vs []float64, trials int) campaignSpec {
	var pts []campaignPoint
	for _, v := range vs {
		for _, n := range ns {
			p := detect.Defaults().WithN(n).WithV(v)
			pts = append(pts, campaignPoint{
				label:   fmt.Sprintf("N=%d,V=%g", n, v),
				cfg:     sim.Config{Params: p, Trials: trials, Seed: pointSeed(seed, len(pts)), RNG: field.SchemePhilox},
				analyze: true,
			})
		}
	}
	return campaignSpec{points: pts, check: checkFig9a}
}

// degradedCampaign is the per-trial fault path: one point per dead
// fraction over the 6 km lossy relay (per-hop delivery 0.9, 2 retries,
// the FaultyTrial configuration), then the closed-loop inference
// scenario (20% dead, single-hop delivery 0.9, beacons, SPRT inference).
func degradedCampaign(seed int64, deadFracs []float64, trials int) campaignSpec {
	var pts []campaignPoint
	for _, f := range deadFracs {
		pts = append(pts, campaignPoint{
			label: fmt.Sprintf("dead=%.1f,relay", f),
			cfg: sim.Config{
				Params: detect.Defaults(), Trials: trials, Seed: pointSeed(seed, len(pts)), RNG: field.SchemePhilox,
				Faults:    faults.Bernoulli{DeadFrac: f},
				CommRange: 6000,
				Loss: netsim.LossModel{
					PerHopDelivery: 0.9, MaxRetries: 2,
					PerHop: 10 * time.Second, Backoff: 5 * time.Second,
				},
			},
		})
	}
	pts = append(pts, campaignPoint{
		label: "dead=0.2,infer",
		cfg: sim.Config{
			Params: detect.Defaults(), Trials: trials, Seed: pointSeed(seed, len(pts)), RNG: field.SchemePhilox,
			Faults:   faults.Bernoulli{DeadFrac: 0.2},
			PDeliver: 0.9, Beacons: true, Infer: &infer.Options{},
		},
	})
	return campaignSpec{points: pts, check: checkDegraded}
}

// runRep executes every point once, in order, and records a span per
// point and per layer call when traced.
func runRep(ctx context.Context, tr *tracer, pts []campaignPoint) ([]pointResult, error) {
	repID := tr.id()
	repStart := time.Now()
	out := make([]pointResult, len(pts))
	for i, pt := range pts {
		pid := tr.id()
		t0 := time.Now()
		if pt.analyze {
			a, err := detect.MSApproach(pt.cfg.Params, fig9aAnalysis)
			if err != nil {
				return nil, fmt.Errorf("analysis %s: %w", pt.label, err)
			}
			tr.record(tr.id(), pid, "detect.MSApproach", pt.label, t0, time.Now(), "detect")
			out[i].ana = a
		}
		s0 := time.Now()
		res, err := sim.RunCtx(ctx, pt.cfg)
		if err != nil {
			return nil, fmt.Errorf("simulation %s: %w", pt.label, err)
		}
		s1 := time.Now()
		tr.record(tr.id(), pid, "sim.RunCtx", pt.label, s0, s1, "sim")
		tr.record(pid, repID, "point", pt.label, t0, s1)
		out[i].res, out[i].dur, out[i].simDur = res, s1.Sub(t0), s1.Sub(s0)
	}
	tr.record(repID, 0, "repetition", "", repStart, time.Now())
	return out, nil
}

// digest fingerprints a repetition's outcome counts, so two repetitions
// or two runs at the same seed can be compared bit for bit.
func digest(res []pointResult) uint64 {
	h := fnv.New64a()
	put := func(v int) { binary.Write(h, binary.LittleEndian, int64(v)) }
	for _, r := range res {
		s := r.res
		put(s.Detections)
		put(s.Faults.Generated)
		put(s.Faults.Delivered)
		put(s.Faults.Late)
		put(s.Faults.Lost)
		if s.Infer != nil {
			put(s.Infer.Final.TP)
			put(s.Infer.Final.FP)
			put(s.Infer.Final.FN)
			put(s.Infer.Declarations)
		}
	}
	return h.Sum64()
}

// runCampaign runs a closed-loop campaign workload: setupRounds warm-up
// repetitions (set-up), then full repetitions until the measured time is
// spent.
func runCampaign(ctx context.Context, rc runConfig, spec campaignSpec) (*report, error) {
	r := newReport()
	warm := append([]campaignPoint(nil), spec.points...)
	for i := range warm {
		warm[i].cfg.Trials = max(1, warm[i].cfg.Trials/warmupDiv)
	}
	var setups []float64
	for k := 0; k < setupRounds; k++ {
		t0 := time.Now()
		if _, err := runRep(ctx, nil, warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	d := obsDelta{before: obs.Default.Snapshot()}
	start := time.Now()
	var (
		pointMs, repP99, repS []float64
		simBusy               time.Duration
		trials                int
		firstDigest           uint64
	)
	for len(repS) < minReps || time.Since(start) < rc.seconds {
		t0 := time.Now()
		res, err := runRep(ctx, rc.tr, spec.points)
		if err != nil {
			return nil, err
		}
		repS = append(repS, time.Since(t0).Seconds())
		var repMs []float64
		for _, p := range res {
			repMs = append(repMs, ms(p.dur))
			simBusy += p.simDur
			trials += p.res.Trials
		}
		pointMs = append(pointMs, repMs...)
		repP99 = append(repP99, quantile(repMs, 0.99))
		r.attempted += len(res)
		if len(repS) == 1 {
			firstDigest = digest(res)
			spec.check(spec.points, res, r)
		} else if dg := digest(res); dg != firstDigest {
			r.failed += len(res)
			r.fail("repetition %d digest %016x differs from the first %016x: the campaign is not deterministic", len(repS), dg, firstDigest)
		}
	}
	wall := time.Since(start)
	d.after = obs.Default.Snapshot()

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["throughput_per_s"] = float64(trials) / simBusy.Seconds()
	r.metrics["p50_ms"] = median(pointMs)
	r.metrics["peak_rss_mb"] = rss
	r.notef("setup_s: median of %d set-ups, each a warm-up repetition at 1/%d of the trials %.4f", setupRounds, warmupDiv, setups)
	r.notef("throughput_per_s: %d simulated trials over %.3f s inside sim.RunCtx", trials, simBusy.Seconds())
	r.notef("p50_ms: median of %d point latencies (one point: its analysis, if any, and its simulation)", len(pointMs))
	r.notef("p99_ms = %.4f ms: median over %d repetitions of each repetition's p99 point latency (not gated)", median(repP99), len(repP99))
	r.notef("campaign_s: %.4f s median wall time of one repetition of %d points (%d repetitions)", median(repS), len(spec.points), len(repS))
	r.notef("digest of the detection counts: %016x", firstDigest)

	if rc.tr != nil {
		layerFromObs(d, r.metrics)
		det, sm := rc.tr.busyOf("detect"), rc.tr.busyOf("sim")
		r.metrics["detect.share"] = 100 * det.total.Seconds() / wall.Seconds()
		r.metrics["detect.calls_per_busy_s"] = rc.tr.perBusySecond("detect")
		r.metrics["sim.share"] = 100 * sm.total.Seconds() / wall.Seconds()
		r.metrics["sim.trials_per_busy_s"] = ratio(float64(trials), sm.total.Seconds())
	}
	return r, nil
}

// checkFig9a asserts the paper's validation claim at its own scale: each
// point's analysis lies within 0.01 plus 3.3 standard errors of the
// simulated detection probability.
func checkFig9a(pts []campaignPoint, res []pointResult, r *report) {
	worst := 0.0
	for i, pt := range pts {
		a, s := res[i].ana.DetectionProb, res[i].res.DetectionProb
		tol := 0.01 + 3.3*math.Sqrt(a*(1-a)/float64(res[i].res.Trials))
		worst = math.Max(worst, math.Abs(a-s))
		if math.Abs(a-s) > tol {
			r.fail("%s: |analysis %.4f - simulation %.4f| > %.4f", pt.label, a, s, tol)
		}
	}
	r.notef("check: |analysis - simulation| <= 0.01 + 3.3 SE at all %d points (worst %.4f)", len(pts), worst)
}

// checkDegraded asserts the fault path's invariants: every generated
// report is delivered, late or lost; detection does not rise with the
// dead fraction beyond the confidence intervals; the inferencer keeps
// precision and recall at 0.9 or better.
func checkDegraded(pts []campaignPoint, res []pointResult, r *report) {
	var prev *sim.Result
	for i, pt := range pts {
		s := res[i].res
		if s.Infer != nil {
			if p, rc := s.Infer.Precision(), s.Infer.Recall(); p < 0.9 || rc < 0.9 {
				r.fail("%s: inference precision %.4f recall %.4f, want both >= 0.9", pt.label, p, rc)
			} else {
				r.notef("check: %s inference precision %.4f recall %.4f (>= 0.9)", pt.label, p, rc)
			}
			continue
		}
		f := s.Faults
		if f.Delivered+f.Late+f.Lost != f.Generated {
			r.fail("%s: delivered %d + late %d + lost %d != generated %d", pt.label, f.Delivered, f.Late, f.Lost, f.Generated)
		}
		if prev != nil && s.CI.Lo > prev.CI.Hi {
			r.fail("%s: detection %.4f rose above the previous dead fraction's %.4f beyond their CIs", pt.label, s.DetectionProb, prev.DetectionProb)
		}
		prev = s
	}
	r.notef("check: delivered+late+lost == generated; detection non-increasing in dead_frac within CIs")
}
