package sim

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/netsim"
)

// TestRunMatchesDetailedTrials cross-checks Run's aggregates against
// RunTrial's detailed output trial by trial, so a draw-order slip between
// the executor and the detailed path that happened to preserve aggregates
// would still be caught. Under philox a plain detailed trial draws the
// out-of-window sensors and Run does not, so this also checks that
// drawing them moves no other draw; a faulty relay campaign needs the
// whole deployment on both paths.
func TestRunMatchesDetailedTrials(t *testing.T) {
	pd := detect.Defaults()
	pd.Pd = 0.7
	faulty := Config{
		Params: detect.Defaults(), Trials: 30, Seed: 14, Workers: 2,
		Faults:    faults.Bernoulli{DeadFrac: 0.2},
		CommRange: 6000,
		Loss: netsim.LossModel{
			PerHopDelivery: 0.9, MaxRetries: 2,
			PerHop: 10 * time.Second, Backoff: 5 * time.Second,
		},
	}
	for _, cfg := range []Config{{Params: pd, Trials: 40, Seed: 12, Workers: 2}, faulty} {
		for _, scheme := range []field.RNGScheme{field.SchemeLegacy, field.SchemePhilox} {
			cfg.RNG = scheme
			checkRunMatchesDetailed(t, cfg)
		}
	}
}

// checkRunMatchesDetailed runs cfg with Run and trial by trial with
// RunTrial, and requires the same detections, report total and fault
// accounting.
func checkRunMatchesDetailed(t *testing.T, cfg Config) {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	detections, reports := 0, 0
	var fs FaultStats
	for trial := 0; trial < cfg.Trials; trial++ {
		tr, err := RunTrial(cfg, trial)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Sensors) != cfg.Params.N {
			t.Fatalf("%v trial %d: %d sensors in the detail, want %d", cfg.RNG, trial, len(tr.Sensors), cfg.Params.N)
		}
		if tr.Detected {
			detections++
		}
		reports += tr.Reports
		fs.merge(tr.Faults)
	}
	if res.Detections != detections {
		t.Errorf("%v detections: Run %d, per-trial %d", cfg.RNG, res.Detections, detections)
	}
	if got := res.Reports.Mean() * float64(res.Trials); math.Abs(got-float64(reports)) > 1e-9 {
		t.Errorf("%v total reports: Run %v, per-trial %d", cfg.RNG, got, reports)
	}
	fs.MeanAliveFrac /= float64(cfg.Trials)
	if d := math.Abs(fs.MeanAliveFrac - res.Faults.MeanAliveFrac); d > 1e-12 {
		t.Errorf("%v MeanAliveFrac: Run %v, per-trial %v", cfg.RNG, res.Faults.MeanAliveFrac, fs.MeanAliveFrac)
	}
	fs.MeanAliveFrac = res.Faults.MeanAliveFrac
	if fs != res.Faults {
		t.Errorf("%v fault accounting: Run %+v, per-trial %+v", cfg.RNG, res.Faults, fs)
	}
}

// TestVisitMatchesRun: Visit records every trial's whole deployment and
// generated reports — under philox it draws the out-of-window sensors,
// Run does not — and the K-of-M rule over those reports must give Run's
// detections and report total.
func TestVisitMatchesRun(t *testing.T) {
	pd := detect.Defaults()
	pd.Pd = 0.7
	for _, scheme := range []field.RNGScheme{field.SchemeLegacy, field.SchemePhilox} {
		cfg := Config{Params: pd, Trials: 40, Seed: 16, Workers: 2, RNG: scheme}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		type tally struct{ detections, reports int }
		accs, err := Visit(context.Background(), cfg, func(acc *tally, tr Trial) error {
			if len(tr.Sensors) != pd.N {
				t.Errorf("%v: Visit shows %d sensors, want %d", scheme, len(tr.Sensors), pd.N)
			}
			if len(tr.Reports) >= pd.K {
				acc.detections++ // mission = window: the K-of-M rule is a total
			}
			acc.reports += len(tr.Reports)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var sum tally
		for _, a := range accs {
			sum.detections += a.detections
			sum.reports += a.reports
		}
		if sum.detections != res.Detections {
			t.Errorf("%v detections: Run %d, Visit %d", scheme, res.Detections, sum.detections)
		}
		if got := res.Reports.Mean() * float64(res.Trials); math.Abs(got-float64(sum.reports)) > 1e-9 {
			t.Errorf("%v total reports: Run %v, Visit %d", scheme, got, sum.reports)
		}
	}
}

// TestPhiloxDeployIDOrder pins the philox deploy's id layout on detailed
// trials of a two-class fleet: within each class, a prefix of the ids
// lies in the class's window (the track's bounding box inflated by its
// Rs) and the rest outside it, and every reporter is in a prefix.
func TestPhiloxDeployIDOrder(t *testing.T) {
	classes := []detect.SensorClass{{Count: 90, Rs: 800, Pd: 0.85}, {Count: 30, Rs: 2500, Pd: 0.95}}
	cfg := Config{Params: detect.Defaults(), Trials: 1, Seed: 17, RNG: field.SchemePhilox}
	cfg.Params.N = 120
	k := getKernel(nil)
	defer putKernel(k)
	if err := k.own.init(cfg, classes, 1, 0); err != nil {
		t.Fatal(err)
	}
	k.pl = &k.own
	for trial := 0; trial < 50; trial++ {
		if err := k.run(trial, true); err != nil {
			t.Fatal(err)
		}
		tr := k.detail()
		for c, cl := range k.pl.classes {
			win := k.indexWindow(cl.disk.Rs)
			in := 0
			for in < cl.count && win.Contains(tr.Sensors[cl.off+in]) {
				in++
			}
			if in != k.inWin[c] {
				t.Fatalf("trial %d class %d: %d leading sensors in the window, the deploy drew %d there", trial, c, in, k.inWin[c])
			}
			for i := in; i < cl.count; i++ {
				if win.Contains(tr.Sensors[cl.off+i]) {
					t.Fatalf("trial %d class %d: sensor %d of the rest lies in the window", trial, c, i)
				}
			}
		}
		for _, id := range tr.Reporters {
			c := 0
			if id >= classes[0].Count {
				c = 1
			}
			if id-k.pl.classes[c].off >= k.inWin[c] {
				t.Fatalf("trial %d: reporter %d is out of its class's window", trial, id)
			}
		}
	}
}

// TestPhiloxFaultyDeterministic: campaigns with false alarms switched on
// must be scheme-deterministic across worker counts too.
func TestPhiloxFaultyDeterministic(t *testing.T) {
	cfg := Config{
		Params: detect.Defaults(),
		Trials: 60,
		Seed:   21,
		RNG:    field.SchemePhilox,
	}
	cfg.FalseAlarmP = 0.001
	var ref *Result
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		c := cfg
		c.Workers = w
		res, err := Run(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d: results differ:\n%+v\n%+v", w, ref, res)
		}
	}
}

// TestRNGSchemeValidation pins config validation of the scheme value.
func TestRNGSchemeValidation(t *testing.T) {
	cfg := Config{Params: detect.Defaults(), Trials: 1, RNG: field.RNGScheme(42)}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an unknown RNG scheme")
	}
}

// TestInsideMatchesContains: the rest stage's one-branch containment test
// agrees with geom.Rect.Contains on uniform points, on the window's edges
// and corners, and just off them.
func TestInsideMatchesContains(t *testing.T) {
	r := geom.Rect{MinX: 1000, MinY: 2500, MaxX: 7000, MaxY: 9000.5}
	ph := field.NewPhilox(1, 2)
	xs := []float64{r.MinX, r.MaxX, math.Nextafter(r.MinX, 0), math.Nextafter(r.MaxX, math.Inf(1)), 0, 32000}
	ys := []float64{r.MinY, r.MaxY, math.Nextafter(r.MinY, 0), math.Nextafter(r.MaxY, math.Inf(1)), 0, 32000}
	var pts []geom.Point
	for _, x := range xs {
		for _, y := range ys {
			pts = append(pts, geom.Point{X: x, Y: y}, geom.Point{X: x, Y: ph.Float64() * 32000}, geom.Point{X: ph.Float64() * 32000, Y: y})
		}
	}
	for i := 0; i < 100000; i++ {
		pts = append(pts, geom.Point{X: ph.Float64() * 32000, Y: ph.Float64() * 32000})
	}
	for _, p := range pts {
		if got, want := inside(p, r), r.Contains(p); got != want {
			t.Fatalf("inside(%v) = %v, Contains = %v", p, got, want)
		}
	}
}
