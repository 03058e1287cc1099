package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/target"
)

func baseConfig() Config {
	return Config{
		Params: detect.Defaults(),
		Trials: 400,
		Seed:   12345,
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad params", func(c *Config) { c.Params.N = -1 }},
		{"zero trials", func(c *Config) { c.Trials = 0 }},
		{"negative workers", func(c *Config) { c.Workers = -1 }},
		{"bad confinement", func(c *Config) { c.Confine = Confinement(9) }},
		{"bad false alarm", func(c *Config) { c.FalseAlarmP = 1.5 }},
		{"NaN false alarm", func(c *Config) { c.FalseAlarmP = math.NaN() }},
		{"NaN exposure", func(c *Config) { c.ExposureLambda = math.NaN() }},
	}
	for _, tc := range cases {
		cfg := baseConfig()
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	cfg := baseConfig()
	cfg.Workers = 1
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	eight, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if one.Detections != eight.Detections {
		t.Errorf("worker count changed results: %d vs %d", one.Detections, eight.Detections)
	}
	if one.MeanReports != eight.MeanReports {
		t.Errorf("mean reports differ: %v vs %v", one.MeanReports, eight.MeanReports)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Seed = 999
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed replays; different seeds should almost surely differ in the
	// report histogram.
	a2, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Detections != a2.Detections || a.MeanReports != a2.MeanReports {
		t.Error("same seed must reproduce results")
	}
	if a.Detections == b.Detections && a.MeanReports == b.MeanReports {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestRunBasicInvariants(t *testing.T) {
	res, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 400 {
		t.Errorf("trials = %d", res.Trials)
	}
	if res.Detections < 0 || res.Detections > res.Trials {
		t.Errorf("detections = %d", res.Detections)
	}
	if res.DetectionProb < 0 || res.DetectionProb > 1 {
		t.Errorf("prob = %v", res.DetectionProb)
	}
	if !res.CI.Contains(res.DetectionProb) {
		t.Errorf("CI %+v should contain the point estimate %v", res.CI, res.DetectionProb)
	}
	if res.Reports.Total() != int64(res.Trials) {
		t.Errorf("histogram total = %d", res.Reports.Total())
	}
	// Detection rule consistency: P[detect] == empirical P[reports >= K].
	if got := res.Reports.TailProb(detect.Defaults().K); math.Abs(got-res.DetectionProb) > 1e-12 {
		t.Errorf("tail prob %v != detection prob %v", got, res.DetectionProb)
	}
}

func TestRunNoSensors(t *testing.T) {
	cfg := baseConfig()
	cfg.Params.N = 0
	cfg.Trials = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections != 0 || res.MeanReports != 0 {
		t.Errorf("empty field produced reports: %+v", res)
	}
}

func TestRunDenseFieldAlwaysDetects(t *testing.T) {
	cfg := baseConfig()
	cfg.Params.N = 4000
	cfg.Params.FieldSide = 8000
	cfg.Params.V = 5 // 3 km track fits the smaller field
	cfg.Params.M = 10
	cfg.Params.Pd = 1
	cfg.Params.K = 1
	cfg.Trials = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionProb != 1 {
		t.Errorf("dense field with Pd=1, K=1: prob = %v, want 1", res.DetectionProb)
	}
}

// TestSimulationMatchesAnalysis is the Figure 9(a) headline check at one
// configuration: the M-S analysis and the Monte Carlo simulation must agree
// within Monte Carlo noise plus the paper's ~1% model error.
func TestSimulationMatchesAnalysis(t *testing.T) {
	cfg := baseConfig()
	cfg.Trials = 4000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ana, err := detect.MSApproach(cfg.Params, detect.MSOptions{Gh: 4, G: 4})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(res.DetectionProb - ana.DetectionProb); diff > 0.03 {
		t.Errorf("sim %v vs analysis %v: diff %v > 0.03", res.DetectionProb, ana.DetectionProb, diff)
	}
}

// TestSimulationMatchesAnalysisSweep reproduces Figure 9(a) end-to-end on a
// reduced sweep; skipped in -short mode.
func TestSimulationMatchesAnalysisSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	for _, v := range []float64{4, 10} {
		for _, n := range []int{60, 150, 240} {
			cfg := baseConfig()
			cfg.Params = cfg.Params.WithN(n).WithV(v)
			cfg.Trials = 4000
			cfg.Seed = int64(1000*v) + int64(n)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ana, err := detect.MSApproach(cfg.Params, detect.MSOptions{Gh: 4, G: 4})
			if err != nil {
				t.Fatal(err)
			}
			if diff := math.Abs(res.DetectionProb - ana.DetectionProb); diff > 0.035 {
				t.Errorf("V=%v N=%d: sim %v vs analysis %v (diff %v)",
					v, n, res.DetectionProb, ana.DetectionProb, diff)
			}
		}
	}
}

// TestRandomWalkBelowStraightLine checks the Figure 9(c) property: a
// direction-changing target is detected no more often than the straight-line
// analysis predicts (its ARegion shrinks), but stays close.
func TestRandomWalkBelowStraightLine(t *testing.T) {
	cfg := baseConfig()
	cfg.Trials = 4000
	cfg.Model = target.RandomWalk{Step: cfg.Params.Vt(), MaxTurn: math.Pi / 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ana, err := detect.MSApproach(cfg.Params, detect.MSOptions{Gh: 4, G: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionProb > ana.DetectionProb+0.02 {
		t.Errorf("random walk %v should not exceed straight-line analysis %v",
			res.DetectionProb, ana.DetectionProb)
	}
	if ana.DetectionProb-res.DetectionProb > 0.08 {
		t.Errorf("random walk %v too far below analysis %v (paper reports <= 2.4%%)",
			res.DetectionProb, ana.DetectionProb)
	}
}

func TestConfineNoneLowersDetection(t *testing.T) {
	// Unconfined tracks leave the sensor field, so fewer reports accrue
	// (ablation A2).
	conf := baseConfig()
	conf.Trials = 3000
	confined, err := Run(conf)
	if err != nil {
		t.Fatal(err)
	}
	unconf := conf
	unconf.Confine = ConfineNone
	unconfined, err := Run(unconf)
	if err != nil {
		t.Fatal(err)
	}
	if unconfined.MeanReports >= confined.MeanReports {
		t.Errorf("unconfined mean reports %v should be below confined %v",
			unconfined.MeanReports, confined.MeanReports)
	}
}

func TestFalseAlarmsRaiseDetection(t *testing.T) {
	clean := baseConfig()
	clean.Trials = 2000
	base, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	noisy := clean
	noisy.FalseAlarmP = 0.002
	withFA, err := Run(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if withFA.MeanReports <= base.MeanReports {
		t.Errorf("false alarms should add reports: %v vs %v", withFA.MeanReports, base.MeanReports)
	}
	if withFA.DetectionProb < base.DetectionProb-0.02 {
		t.Errorf("false alarms should not reduce detection: %v vs %v",
			withFA.DetectionProb, base.DetectionProb)
	}
}

func TestConfinementImpossible(t *testing.T) {
	cfg := baseConfig()
	// Track longer than the field diagonal can never fit.
	cfg.Params.FieldSide = 9000
	cfg.Params.Rs = 400
	cfg.Params.V = 50
	cfg.Params.M = 20 // 60 km track in a 9 km field
	cfg.Trials = 2
	_, err := Run(cfg)
	if !errors.Is(err, ErrConfinement) {
		t.Errorf("expected ErrConfinement, got %v", err)
	}
	// The same scenario runs fine unconfined.
	cfg.Confine = ConfineNone
	if _, err := Run(cfg); err != nil {
		t.Errorf("unconfined run failed: %v", err)
	}
}

// TestConfinementRefusedUpFront: the default scenario at V = 40 m/s has a
// 48 km straight track in a field whose diagonal is 45.3 km. The campaign
// is refused while the configuration resolves, as a configuration error
// naming both lengths, instead of after ConfineAttempts rejected tracks.
func TestConfinementRefusedUpFront(t *testing.T) {
	cfg := baseConfig()
	cfg.Params.V = 40
	_, err := Run(cfg)
	if !errors.Is(err, ErrConfig) || !errors.Is(err, ErrConfinement) {
		t.Fatalf("err = %v, want ErrConfig and ErrConfinement", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "48000 m") || !strings.Contains(msg, "45255 m") {
		t.Errorf("error %q names neither the track length nor the field diagonal", msg)
	}
}

func TestRunTrialDetails(t *testing.T) {
	cfg := baseConfig()
	tr, err := RunTrial(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Track) != cfg.Params.M+1 {
		t.Errorf("track has %d positions", len(tr.Track))
	}
	if len(tr.Sensors) != cfg.Params.N {
		t.Errorf("%d sensors", len(tr.Sensors))
	}
	if len(tr.PerPeriod) != cfg.Params.M {
		t.Errorf("%d per-period entries", len(tr.PerPeriod))
	}
	sum := 0
	for _, c := range tr.PerPeriod {
		if c < 0 {
			t.Fatalf("negative period count %d", c)
		}
		sum += c
	}
	if sum != tr.Reports {
		t.Errorf("per-period sum %d != reports %d", sum, tr.Reports)
	}
	if (tr.Reports > 0) != (len(tr.Reporters) > 0) {
		t.Errorf("reporters %v inconsistent with reports %d", tr.Reporters, tr.Reports)
	}
	if tr.Detected != (tr.Reports >= cfg.Params.K) {
		t.Error("detection flag inconsistent")
	}
	// Deterministic replay.
	tr2, err := RunTrial(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Reports != tr.Reports || tr2.Detected != tr.Detected {
		t.Error("RunTrial must be deterministic")
	}
	if _, err := RunTrial(cfg, -1); err == nil {
		t.Error("negative trial index should fail")
	}
}

// TestMeanReportsMatchesLinearity: by linearity of expectation the mean
// total report count over M periods is exactly M * N * p_indi for confined
// tracks — a sharp end-to-end check on the simulator's geometry and
// Bernoulli draws that needs no analysis machinery at all.
func TestMeanReportsMatchesLinearity(t *testing.T) {
	cfg := baseConfig()
	cfg.Trials = 6000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Params
	want := float64(p.M) * float64(p.N) * p.PIndi()
	// Std error of the mean: per-trial variance is O(want); allow 5 sigma.
	tol := 5 * math.Sqrt(want*2/float64(cfg.Trials))
	if math.Abs(res.MeanReports-want) > tol {
		t.Errorf("mean reports %v, want %v +- %v", res.MeanReports, want, tol)
	}
}
