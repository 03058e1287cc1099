package infer

import (
	"errors"
	"math"
	"testing"

	"github.com/groupdetect/gbd/internal/detect"
)

func mustEngine(t *testing.T, n int, opt Options) *Engine {
	t.Helper()
	e, err := New(n, opt)
	if err != nil {
		t.Fatalf("New(%d): %v", n, err)
	}
	return e
}

func observe(t *testing.T, e *Engine, arrived []bool, gen, del int) {
	t.Helper()
	if err := e.Observe(arrived, gen, del); err != nil {
		t.Fatalf("Observe: %v", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []Options{
		{},                                 // missing ReportProb
		{ReportProb: -0.1},                 // negative
		{ReportProb: 1.5},                  // > 1
		{ReportProb: 1, Alpha: 0.7},        // alpha out of range
		{ReportProb: 1, Beta: -0.2},        // beta out of range
		{ReportProb: 1, DeliveryPrior: 2},  // prior out of range
		{ReportProb: 1, PriorWeight: -3},   // negative weight
		{ReportProb: 1, Alpha: math.NaN()}, // NaN alpha
		{ReportProb: math.Inf(1)},          // Inf report prob
	}
	for i, opt := range cases {
		if err := opt.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: Validate() = %v, want ErrConfig", i, err)
		}
	}
	if err := (Options{ReportProb: 1}).Validate(); err != nil {
		t.Errorf("defaults: Validate() = %v", err)
	}
	if _, err := New(0, Options{ReportProb: 1}); !errors.Is(err, ErrConfig) {
		t.Errorf("New(0) = %v, want ErrConfig", err)
	}
}

// A perfectly silent sensor on a clean channel with beacons must be
// declared after ceil(A / -log(1-r)) periods — two at the defaults.
func TestSilentSensorDeclared(t *testing.T) {
	e := mustEngine(t, 2, Options{ReportProb: 1})
	// Sensor 0 reports every period, sensor 1 never does. The channel is
	// clean: everything generated is delivered.
	for period := 1; period <= 4; period++ {
		observe(t, e, []bool{true, false}, 1, 1)
	}
	if got := e.DeclaredAt(0); got != 0 {
		t.Errorf("live sensor declared at period %d", got)
	}
	at := e.DeclaredAt(1)
	if at == 0 {
		t.Fatalf("silent sensor never declared; llr threshold %v", e.Threshold())
	}
	if at > 3 {
		t.Errorf("silent sensor declared at period %d, want <= 3", at)
	}
	if e.Declarations() != 1 {
		t.Errorf("Declarations = %d, want 1", e.Declarations())
	}
	if frac := e.InferredDeadFrac(); frac != 0.5 {
		t.Errorf("InferredDeadFrac = %v, want 0.5", frac)
	}
}

// An arrival from a declared sensor retracts the declaration and resets
// its evidence.
func TestArrivalRetracts(t *testing.T) {
	e := mustEngine(t, 1, Options{ReportProb: 1})
	for period := 1; period <= 3; period++ {
		observe(t, e, []bool{false}, 0, 0)
	}
	if e.DeclaredAt(0) == 0 {
		t.Fatal("sensor not declared after 3 silent periods")
	}
	observe(t, e, []bool{true}, 1, 1)
	if at := e.DeclaredAt(0); at != 0 {
		t.Errorf("declaration not retracted; DeclaredAt = %d", at)
	}
	if e.Retractions() != 1 {
		t.Errorf("Retractions = %d, want 1", e.Retractions())
	}
	if e.DeadCount() != 0 {
		t.Errorf("DeadCount = %d after retraction", e.DeadCount())
	}
}

// Fleet-wide delivery loss must slow declarations down: with the channel
// visibly dropping most frames, silence is weak evidence of death.
func TestLossSlowsDeclaration(t *testing.T) {
	clean := mustEngine(t, 1, Options{ReportProb: 1, PriorWeight: 1})
	lossy := mustEngine(t, 1, Options{ReportProb: 1, PriorWeight: 1})
	periodsToDeclare := func(e *Engine, gen, del int) int {
		for period := 1; period <= 1000; period++ {
			observe(t, e, []bool{false}, gen, del)
			if e.DeclaredAt(0) != 0 {
				return period
			}
		}
		return 1001
	}
	fast := periodsToDeclare(clean, 100, 100)
	slow := periodsToDeclare(lossy, 100, 30)
	if fast >= slow {
		t.Errorf("clean channel declared at %d, lossy at %d: loss must slow the SPRT", fast, slow)
	}
	if hat := lossy.PDeliverHat(); hat > 0.5 {
		t.Errorf("PDeliverHat = %v after 70%% loss telemetry", hat)
	}
}

func TestObserveValidation(t *testing.T) {
	e := mustEngine(t, 2, Options{ReportProb: 1})
	if err := e.Observe([]bool{false}, 0, 0); !errors.Is(err, ErrConfig) {
		t.Errorf("short arrival vector: %v, want ErrConfig", err)
	}
	if err := e.Observe([]bool{false, false}, 1, 2); !errors.Is(err, ErrConfig) {
		t.Errorf("delivered > generated: %v, want ErrConfig", err)
	}
	if err := e.Observe([]bool{false, false}, -1, 0); !errors.Is(err, ErrConfig) {
		t.Errorf("negative telemetry: %v, want ErrConfig", err)
	}
}

func TestAliveMaskAndScore(t *testing.T) {
	e := mustEngine(t, 4, Options{ReportProb: 1})
	// Sensors 0 and 1 report; 2 and 3 are silent.
	for period := 1; period <= 4; period++ {
		observe(t, e, []bool{true, true, false, false}, 2, 2)
	}
	alive := e.Alive(nil)
	want := []bool{true, true, false, false}
	for i := range want {
		if alive[i] != want[i] {
			t.Errorf("Alive[%d] = %v, want %v", i, alive[i], want[i])
		}
	}
	// Truth: 2 is really dead, 3 is alive (its beacons were lost).
	c, err := e.Score([]bool{true, true, false, true})
	if err != nil {
		t.Fatalf("Score: %v", err)
	}
	if c.TP != 1 || c.FP != 1 || c.FN != 0 || c.TN != 2 {
		t.Errorf("confusion = %+v, want TP=1 FP=1 FN=0 TN=2", c)
	}
	if got := c.Precision(); got != 0.5 {
		t.Errorf("Precision = %v, want 0.5", got)
	}
	if got := c.Recall(); got != 1.0 {
		t.Errorf("Recall = %v, want 1", got)
	}
	if _, err := e.Score([]bool{true}); !errors.Is(err, ErrConfig) {
		t.Errorf("short truth mask: %v, want ErrConfig", err)
	}
}

func TestConfusionEmptyDenominators(t *testing.T) {
	var c Confusion
	if c.Precision() != 1 || c.Recall() != 1 {
		t.Errorf("empty confusion: precision %v recall %v, want 1/1", c.Precision(), c.Recall())
	}
	c.Add(Confusion{TP: 2, FP: 1, FN: 1, TN: 4})
	c.Add(Confusion{TP: 1})
	if c.TP != 3 || c.FP != 1 || c.FN != 1 || c.TN != 4 {
		t.Errorf("Add: %+v", c)
	}
}

func TestExpectedReportProb(t *testing.T) {
	p := detect.Defaults()
	if got := ExpectedReportProb(p, true); got != 1 {
		t.Errorf("with beacons = %v, want 1", got)
	}
	if got := ExpectedReportProb(p, false); got != p.PIndi() {
		t.Errorf("without beacons = %v, want PIndi %v", got, p.PIndi())
	}
}

// The closed-loop pair must collapse to a zero gap when inference is
// perfect, and carry the degradation analysis' monotonicity otherwise.
func TestClosedLoopPoint(t *testing.T) {
	p := detect.Defaults()
	exact, err := ClosedLoopPoint(p, 0.2, 0.2, 0.9, 0.9, detect.MSOptions{})
	if err != nil {
		t.Fatalf("ClosedLoopPoint: %v", err)
	}
	if exact.AbsDiff() != 0 {
		t.Errorf("perfect inference: AbsDiff = %v, want 0", exact.AbsDiff())
	}
	if exact.TruthProb <= 0 || exact.TruthProb >= 1 {
		t.Errorf("TruthProb = %v out of (0, 1)", exact.TruthProb)
	}
	// Underestimating death must predict a higher detection probability.
	optimistic, err := ClosedLoopPoint(p, 0.4, 0.1, 0.9, 0.9, detect.MSOptions{})
	if err != nil {
		t.Fatalf("ClosedLoopPoint: %v", err)
	}
	if optimistic.InferredProb <= optimistic.TruthProb {
		t.Errorf("optimistic inference: inferred %v <= truth %v", optimistic.InferredProb, optimistic.TruthProb)
	}
	// A delivery estimate a hair above 1 clamps instead of erroring.
	clamped, err := ClosedLoopPoint(p, 0.2, 0.2, 1, 1.0000001, detect.MSOptions{})
	if err != nil {
		t.Fatalf("ClosedLoopPoint clamp: %v", err)
	}
	if clamped.PDeliverHat != 1 {
		t.Errorf("PDeliverHat not clamped: %v", clamped.PDeliverHat)
	}
}

// TestResetMatchesNew: an engine Reset after use, to a smaller or a
// larger fleet and other options, behaves as New's engine does over the
// same observations, and a Reset that does not grow the fleet allocates
// nothing.
func TestResetMatchesNew(t *testing.T) {
	used := mustEngine(t, 6, Options{ReportProb: 1})
	for period := 1; period <= 4; period++ {
		observe(t, used, []bool{period == 4, true, false, false, true, false}, 6, 3)
	}
	if used.Declarations() == 0 || used.Retractions() == 0 {
		t.Fatalf("setup: %d declarations, %d retractions, want both > 0", used.Declarations(), used.Retractions())
	}
	for _, n := range []int{4, 9} {
		opt := Options{ReportProb: 0.8, Alpha: 0.05}
		if err := used.Reset(n, opt); err != nil {
			t.Fatal(err)
		}
		fresh := mustEngine(t, n, opt)
		for period := 1; period <= 8; period++ {
			arrived := make([]bool, n)
			for i := range arrived {
				arrived[i] = (i+period)%3 == 0 && i != 1
			}
			observe(t, used, arrived, n, n/3)
			observe(t, fresh, arrived, n, n/3)
			for i := 0; i < n; i++ {
				if used.DeclaredAt(i) != fresh.DeclaredAt(i) {
					t.Fatalf("n %d period %d sensor %d: Reset engine declared at %d, New engine at %d", n, period, i, used.DeclaredAt(i), fresh.DeclaredAt(i))
				}
			}
		}
		if used.Declarations() != fresh.Declarations() || used.Retractions() != fresh.Retractions() ||
			used.PDeliverHat() != fresh.PDeliverHat() || used.Threshold() != fresh.Threshold() {
			t.Errorf("n %d: Reset engine (%d, %d, %v, %v), New engine (%d, %d, %v, %v)", n,
				used.Declarations(), used.Retractions(), used.PDeliverHat(), used.Threshold(),
				fresh.Declarations(), fresh.Retractions(), fresh.PDeliverHat(), fresh.Threshold())
		}
	}
	if err := used.Reset(0, Options{}); !errors.Is(err, ErrConfig) {
		t.Errorf("Reset(0): %v, want ErrConfig", err)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = used.Reset(9, Options{ReportProb: 0.8}) }); allocs != 0 {
		t.Errorf("Reset to a fleet that fits allocates %v objects, want 0", allocs)
	}
}
