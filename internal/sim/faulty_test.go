package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/netsim"
)

// TestZeroDeadFracIsFaultFree: a Bernoulli fault model that kills no one
// is no fault model at all. Without the rule the model would still draw
// one uniform per sensor and shift every later draw of the trial, so a
// dead-fraction sweep's f = 0 point would disagree with the plain
// campaign it stands for.
func TestZeroDeadFracIsFaultFree(t *testing.T) {
	for _, scheme := range []field.RNGScheme{field.SchemeLegacy, field.SchemePhilox} {
		plain := baseConfig()
		plain.Trials = 300
		plain.Seed = 4
		plain.RNG = scheme
		want, err := Run(plain)
		if err != nil {
			t.Fatal(err)
		}
		zero := plain
		zero.Faults = faults.Bernoulli{DeadFrac: 0}
		got, err := Run(zero)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: Bernoulli{DeadFrac: 0} gave %d detections, %+v; nil Faults gave %d, %+v",
				scheme, got.Detections, got.Faults, want.Detections, want.Faults)
		}
	}
}

// TestNoneFaultsMatchesPlainPathExactly: the fault-injection trial with a
// no-op fault model and no delivery modeling consumes the rng in the same
// order as the plain path, so the campaigns must agree trial for trial.
func TestNoneFaultsMatchesPlainPathExactly(t *testing.T) {
	plain := baseConfig()
	plain.Trials = 300
	res, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	faulty := plain
	faulty.Faults = faults.None{}
	resF, err := Run(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionProb != resF.DetectionProb {
		t.Errorf("plain %v vs none-faults %v: paths diverged", res.DetectionProb, resF.DetectionProb)
	}
	if res.MeanReports != resF.MeanReports {
		t.Errorf("mean reports diverged: %v vs %v", res.MeanReports, resF.MeanReports)
	}
	if resF.Faults.MeanAliveFrac != 1 {
		t.Errorf("alive fraction %v, want 1", resF.Faults.MeanAliveFrac)
	}
	if resF.Faults.Generated != int(res.Reports.Mean()*float64(res.Trials)+0.5) {
		t.Errorf("generated %d vs reports %v", resF.Faults.Generated, res.Reports.Mean())
	}
	// Without delivery modeling every generated report is counted.
	if resF.Faults.Delivered != resF.Faults.Generated || resF.Faults.Lost != 0 {
		t.Errorf("accounting: %+v", resF.Faults)
	}
}

// TestDetectionMonotoneInDeadFraction is the graceful-degradation property
// on the simulator side: killing a larger fraction of the deployment can
// only hurt system detection.
func TestDetectionMonotoneInDeadFraction(t *testing.T) {
	cfg := baseConfig()
	cfg.Trials = 2500
	prev := math.Inf(1)
	const slack = 0.02 // Monte Carlo noise between adjacent fractions
	for _, f := range []float64{0, 0.15, 0.3, 0.45, 0.6} {
		run := cfg
		run.Faults = faults.Bernoulli{DeadFrac: f}
		res, err := Run(run)
		if err != nil {
			t.Fatal(err)
		}
		if res.DetectionProb > prev+slack {
			t.Errorf("dead fraction %v: detection %v rose above %v", f, res.DetectionProb, prev)
		}
		if math.Abs(res.Faults.MeanAliveFrac-(1-f)) > 0.02 {
			t.Errorf("dead fraction %v: alive fraction %v", f, res.Faults.MeanAliveFrac)
		}
		prev = res.DetectionProb
	}
}

// TestDetectionMonotoneInLossRate: a lossier per-hop channel can only hurt
// system detection.
func TestDetectionMonotoneInLossRate(t *testing.T) {
	cfg := baseConfig()
	cfg.Trials = 1200
	cfg.CommRange = 6000
	prev := math.Inf(1)
	prevArrived := math.Inf(1)
	const slack = 0.025
	for _, loss := range []float64{0, 0.2, 0.4, 0.6} {
		run := cfg
		run.Loss = netsim.LossModel{
			PerHopDelivery: 1 - loss,
			MaxRetries:     1,
			PerHop:         5 * time.Second,
			Backoff:        time.Second,
		}
		res, err := Run(run)
		if err != nil {
			t.Fatal(err)
		}
		if res.DetectionProb > prev+slack {
			t.Errorf("loss %v: detection %v rose above %v", loss, res.DetectionProb, prev)
		}
		arrived := res.Faults.ArrivedFrac()
		if arrived > prevArrived+0.01 {
			t.Errorf("loss %v: arrived fraction %v rose above %v", loss, arrived, prevArrived)
		}
		prev = res.DetectionProb
		prevArrived = arrived
	}
}

// TestReliableDeliveryPreservesDetection: with the ONR communication
// parameters (6 km radios) and a perfect channel, modeling delivery should
// barely move detection — the paper's layering claim.
func TestReliableDeliveryPreservesDetection(t *testing.T) {
	cfg := baseConfig()
	cfg.Trials = 1200
	noComm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CommRange = 6000
	withComm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := withComm.Faults
	if f.Generated == 0 {
		t.Fatal("no reports generated")
	}
	if got := f.Delivered + f.Late + f.Lost; got != f.Generated {
		t.Errorf("accounting leak: %d+%d+%d != %d", f.Delivered, f.Late, f.Lost, f.Generated)
	}
	if f.ArrivedFrac() < 0.9 {
		t.Errorf("arrived fraction %v too low for the ONR parameters", f.ArrivedFrac())
	}
	if diff := math.Abs(noComm.DetectionProb - withComm.DetectionProb); diff > 0.05 {
		t.Errorf("reliable delivery moved detection by %v (%v -> %v)",
			diff, noComm.DetectionProb, withComm.DetectionProb)
	}
}

// TestBlobFailureSuppressesLocalDetection: destroying a disk around the
// field center must hurt, and destroying (essentially) the whole field must
// drive detection to zero.
func TestBlobFailureSuppressesLocalDetection(t *testing.T) {
	cfg := baseConfig()
	cfg.Trials = 800
	center := geom.Point{X: 16000, Y: 16000}

	healthy, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	blob := cfg
	blob.Faults = faults.Blob{Radius: 12000, Center: &center}
	hurt, err := Run(blob)
	if err != nil {
		t.Fatal(err)
	}
	if hurt.DetectionProb >= healthy.DetectionProb {
		t.Errorf("central blob should hurt: %v vs healthy %v", hurt.DetectionProb, healthy.DetectionProb)
	}

	apocalypse := cfg
	apocalypse.Faults = faults.Blob{Radius: 64000, Center: &center}
	none, err := Run(apocalypse)
	if err != nil {
		t.Fatal(err)
	}
	if none.DetectionProb != 0 {
		t.Errorf("field-wide blob left detection at %v", none.DetectionProb)
	}
	if none.Faults.MeanAliveFrac != 0 {
		t.Errorf("field-wide blob left alive fraction %v", none.Faults.MeanAliveFrac)
	}
}

// TestLifetimeHazardDegrades: a per-period battery hazard lowers detection
// versus an immortal deployment.
func TestLifetimeHazardDegrades(t *testing.T) {
	cfg := baseConfig()
	cfg.Trials = 1200
	healthy, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dying := cfg
	dying.Faults = faults.Lifetime{Hazard: 0.08}
	res, err := Run(dying)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionProb >= healthy.DetectionProb {
		t.Errorf("hazard 0.08 should degrade detection: %v vs %v", res.DetectionProb, healthy.DetectionProb)
	}
	// Mean alive fraction across 20 periods with h=0.08 is
	// mean_t (0.92)^t ~ 0.55.
	if res.Faults.MeanAliveFrac > 0.7 || res.Faults.MeanAliveFrac < 0.4 {
		t.Errorf("alive fraction %v, want ~0.55", res.Faults.MeanAliveFrac)
	}
}

// TestFaultyCampaignDeterministic: the fault-injection path stays
// deterministic per seed and independent of worker scheduling.
func TestFaultyCampaignDeterministic(t *testing.T) {
	cfg := baseConfig()
	cfg.Trials = 400
	cfg.Faults = faults.Lifetime{Hazard: 0.05}
	cfg.CommRange = 6000
	cfg.Loss = netsim.LossModel{
		PerHopDelivery: 0.8,
		MaxRetries:     2,
		PerHop:         5 * time.Second,
		Backoff:        2 * time.Second,
	}
	cfg.Workers = 1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// MeanAliveFrac is a float sum whose addition order depends on the
	// worker partition; everything else must match exactly.
	if math.Abs(a.Faults.MeanAliveFrac-b.Faults.MeanAliveFrac) > 1e-12 {
		t.Errorf("alive fraction diverged: %v vs %v", a.Faults.MeanAliveFrac, b.Faults.MeanAliveFrac)
	}
	a.Faults.MeanAliveFrac = 0
	b.Faults.MeanAliveFrac = 0
	if a.DetectionProb != b.DetectionProb || a.Faults != b.Faults {
		t.Errorf("worker count changed results:\n1: %v %+v\n4: %v %+v",
			a.DetectionProb, a.Faults, b.DetectionProb, b.Faults)
	}
}

// TestFaultyTrialDetailed: the detailed single-trial API reports fault
// accounting and only lists alive reporters.
func TestFaultyTrialDetailed(t *testing.T) {
	cfg := baseConfig()
	cfg.Faults = faults.Bernoulli{DeadFrac: 0.4}
	cfg.CommRange = 6000
	found := false
	for trial := 0; trial < 20 && !found; trial++ {
		tr, err := RunTrial(cfg, trial)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.PerPeriod) != cfg.Params.M || len(tr.Track) != cfg.Params.M+1 {
			t.Fatalf("detail shapes wrong: %d periods, %d track points", len(tr.PerPeriod), len(tr.Track))
		}
		sum := 0
		for _, c := range tr.PerPeriod {
			sum += c
		}
		if sum != tr.Reports {
			t.Fatalf("per-period sum %d != reports %d", sum, tr.Reports)
		}
		if tr.Faults.Generated > 0 {
			found = true
			if tr.Faults.Delivered+tr.Faults.Late+tr.Faults.Lost != tr.Faults.Generated {
				t.Errorf("trial accounting leak: %+v", tr.Faults)
			}
		}
	}
	if !found {
		t.Error("no trial generated reports")
	}
}

// TestFaultConfigValidation covers the new Config surface.
func TestFaultConfigValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.CommRange = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative comm range should fail")
	}
	cfg = baseConfig()
	cfg.CommRange = 6000
	cfg.Loss.PerHopDelivery = 1.5
	if _, err := Run(cfg); err == nil {
		t.Error("invalid loss model should fail")
	}
}

// TestRelayStageAllocatesNothing: once a worker's kernel is warm, the relay
// stage — re-aiming the routing table at a fresh deployment, mask epochs,
// and every send — runs entirely in the kernel's reused storage.
func TestRelayStageAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	cfg := baseConfig()
	cfg.CommRange = 6000
	cfg.Loss = netsim.LossModel{PerHopDelivery: 0.9, MaxRetries: 2, PerHop: 10 * time.Second, Backoff: 5 * time.Second}
	pl, err := newPlan(cfg, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := &kernel{pl: pl, stream: field.NewStream()}
	mask := make([]bool, pl.n)
	trial := 0
	relay := func() {
		k.rng = k.stream.At(pl.cfg.RNG, pl.cfg.Seed, int64(trial))
		if err := k.deploy(); err != nil {
			t.Fatal(err)
		}
		if err := k.relay.rebuild(k.sensors, pl.cfg.CommRange, pl.bounds); err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 3; epoch++ {
			for i := range mask {
				mask[i] = (i+trial+epoch)%4 != 0
			}
			for s := 0; s < pl.n; s += 5 {
				if !mask[s] {
					continue
				}
				if _, err := k.relay.send(s, mask, pl.cfg.Loss, k.rng); err != nil {
					t.Fatal(err)
				}
			}
		}
		trial++
	}
	for i := 0; i < 50; i++ {
		relay() // grow every scratch array to its steady size
	}
	if allocs := testing.AllocsPerRun(200, relay); allocs != 0 {
		t.Errorf("warm relay stage: %v allocs per trial, want 0", allocs)
	}
}

// TestFaultyRunTrialAllocs bounds the allocations of one detailed
// fault-injection trial (BenchmarkFaultyTrial's shape): the fault masks,
// the track and the returned TrialResult, nothing per report or per route.
func TestFaultyRunTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	cfg := Config{
		Params:    detect.Defaults(),
		Trials:    1,
		Faults:    faults.Bernoulli{DeadFrac: 0.2},
		CommRange: 6000,
		Loss: netsim.LossModel{
			PerHopDelivery: 0.9,
			MaxRetries:     2,
			PerHop:         10 * time.Second,
			Backoff:        5 * time.Second,
		},
	}
	trial := 0
	run := func() {
		if _, err := RunTrial(cfg, trial); err != nil {
			t.Fatal(err)
		}
		trial++
	}
	for i := 0; i < 50; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs > 12 {
		t.Errorf("faulty RunTrial: %v allocs per trial, want at most 12", allocs)
	}
}
