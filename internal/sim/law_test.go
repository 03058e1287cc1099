package sim

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/stats"
	"github.com/groupdetect/gbd/internal/target"
)

// lawPoints runs a campaign through the kernel — classes, targets and
// minSep as newPlan takes them — and returns one stats.LawPoint per
// target: its detection count and report-count histogram.
func lawPoints(cfg Config, classes []detect.SensorClass, targets int, minSep float64) ([]stats.LawPoint, error) {
	pl, err := newPlan(cfg, classes, targets, minSep)
	if err != nil {
		return nil, err
	}
	type acc struct {
		detections []int
		reports    []stats.Histogram
	}
	parts, err := execute(context.Background(), pl, func(a *acc, k *kernel) error {
		if a.detections == nil {
			a.detections = make([]int, targets)
			a.reports = make([]stats.Histogram, targets)
		}
		for j, o := range k.out {
			if o.detectedAt > 0 {
				a.detections[j]++
			}
			if err := a.reports[j].Add(o.reports); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pts := make([]stats.LawPoint, targets)
	for j := range pts {
		pts[j] = stats.LawPoint{Trials: pl.cfg.Trials, Reports: &stats.Histogram{}}
		for _, a := range parts {
			pts[j].Detections += a.detections[j]
			pts[j].Reports.Merge(&a.reports[j])
		}
	}
	return pts, nil
}

// lawCase is one campaign shape of TestPhiloxMatchesLegacyLaw.
type lawCase struct {
	name    string
	cfg     Config
	classes []detect.SensorClass
	targets int
	minSep  float64
}

// lawCases are the shapes the window-local philox deploy must not change
// the law of: the Fig. 9(a) grid corners and middle, a two-class fleet,
// two separated targets, the random walk, ConfineNone, exposure sensing
// and Bernoulli faults over the 6 km lossy relay (which draws the
// out-of-window rest).
func lawCases(trials int) []lawCase {
	var cs []lawCase
	for _, v := range []float64{4, 10} {
		for _, n := range []int{60, 140, 240} {
			cs = append(cs, lawCase{name: fmt.Sprintf("N=%d,V=%g", n, v),
				cfg: Config{Params: detect.Defaults().WithN(n).WithV(v)}})
		}
	}
	p := detect.Defaults()
	cs = append(cs,
		lawCase{name: "mixed", classes: []detect.SensorClass{{Count: 90, Rs: 800, Pd: 0.85}, {Count: 15, Rs: 2500, Pd: 0.95}}},
		lawCase{name: "multi", targets: 2, minSep: 2000},
		lawCase{name: "walk", cfg: Config{Model: target.RandomWalk{Step: p.Vt(), MaxTurn: math.Pi / 4}}},
		lawCase{name: "confinenone", cfg: Config{Confine: ConfineNone}},
		lawCase{name: "exposure", cfg: Config{ExposureLambda: 0.04}},
		lawCase{name: "faulty-relay", cfg: Config{
			Faults:    faults.Bernoulli{DeadFrac: 0.2},
			CommRange: 6000,
			Loss: netsim.LossModel{
				PerHopDelivery: 0.9, MaxRetries: 2,
				PerHop: 10 * time.Second, Backoff: 5 * time.Second,
			},
		}},
	)
	for i := range cs {
		c := &cs[i]
		if c.cfg.Params.N == 0 {
			c.cfg.Params = p
		}
		if c.targets == 0 {
			c.targets = 1
		}
		c.cfg.Trials = trials
		c.cfg.Seed = int64(1801 + i)
	}
	return cs
}

// lawFalseReject is TestPhiloxMatchesLegacyLaw's stated false-reject rate
// over all its tests: a correct kernel fails it with probability at most
// 0.001.
const lawFalseReject = 0.001

// TestPhiloxMatchesLegacyLaw is the gate of the window-local philox
// deploy: the philox kernel (tracks first, then only the sensors that can
// see them) and the legacy kernel (every sensor over the whole field)
// must give the same detection law — per-point detection counts and
// report-count histograms, at 20 000 trials per point — in every shape of
// lawCases. It is stats.SameLaw at a 0.001 false-reject rate. Breaking
// the kernel on purpose — a window inflated by Rs/2 instead of Rs, or the
// in-window Binomial's p scaled by 0.9 — fails it.
func TestPhiloxMatchesLegacyLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000 trials per point under two schemes")
	}
	if raceEnabled {
		t.Skip("a statistical check; the executor's races are covered by the determinism tests")
	}
	var legacy, philox []stats.LawPoint
	var names []string
	for _, c := range lawCases(20000) {
		for _, scheme := range []field.RNGScheme{field.SchemeLegacy, field.SchemePhilox} {
			cfg := c.cfg
			cfg.RNG = scheme
			pts, err := lawPoints(cfg, c.classes, c.targets, c.minSep)
			if err != nil {
				t.Fatalf("%s/%v: %v", c.name, scheme, err)
			}
			if scheme == field.SchemeLegacy {
				legacy = append(legacy, pts...)
			} else {
				philox = append(philox, pts...)
			}
		}
		for j := 0; j < c.targets; j++ {
			names = append(names, fmt.Sprintf("%s/target%d", c.name, j))
		}
	}
	cmp, err := stats.SameLaw(legacy, philox, lawFalseReject)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		l, p := legacy[i], philox[i]
		t.Logf("%-22s Pd legacy %.4f philox %.4f  mean reports legacy %.3f philox %.3f", name,
			float64(l.Detections)/float64(l.Trials), float64(p.Detections)/float64(p.Trials),
			l.Reports.Mean(), p.Reports.Mean())
	}
	if !cmp.Same() {
		t.Errorf("%s: %v", names[cmp.Point], cmp)
	} else {
		t.Logf("%s: %v", names[cmp.Point], cmp)
	}
}
