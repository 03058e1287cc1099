package coverage

import (
	"math"
	"testing"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/numeric"
)

func TestNewMapValidation(t *testing.T) {
	if _, err := NewMap(nil, 1, geom.Rect{}, 1); err == nil {
		t.Error("empty bounds should fail")
	}
	if _, err := NewMap(nil, 1, geom.Square(10), 0); err == nil {
		t.Error("zero cell should fail")
	}
	if _, err := NewMap(nil, 0, geom.Square(10), 1); err == nil {
		t.Error("zero range should fail")
	}
	if _, err := NewMap(nil, 1, geom.Square(1e9), 0.1); err == nil {
		t.Error("oversized grid should fail")
	}
}

func TestEmptyDeployment(t *testing.T) {
	m, err := NewMap(nil, 5, geom.Square(100), 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.VoidFraction() != 1 {
		t.Errorf("empty field void = %v, want 1", m.VoidFraction())
	}
	if m.Fraction(1) != 0 {
		t.Errorf("coverage = %v, want 0", m.Fraction(1))
	}
	if m.Fraction(0) != 1 {
		t.Error("k=0 coverage is trivially 1")
	}
	hist := m.Histogram()
	if len(hist) != 1 || hist[0] != 1 {
		t.Errorf("histogram = %v", hist)
	}
	breach, err := m.MaximalBreach(5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(breach.Distance, 1) || !breach.Undetectable {
		t.Errorf("empty field breach = %+v", breach)
	}
}

func TestSingleSensorCenter(t *testing.T) {
	// A single disk of radius 20 in the middle of a 100x100 field.
	sensors := []geom.Point{{X: 50, Y: 50}}
	m, err := NewMap(sensors, 20, geom.Square(100), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Covered fraction ~ pi*20^2/100^2 = 12.6%.
	if got := m.Fraction(1); math.Abs(got-0.1257) > 0.02 {
		t.Errorf("coverage = %v, want ~0.126", got)
	}
	if got := m.VoidFraction(); !numeric.AlmostEqual(got, 1-m.Fraction(1), 1e-12, 1e-12) {
		t.Errorf("void = %v", got)
	}
	// The breach path can route along the top or bottom edge: min distance
	// to the sensor is then ~sqrt(50^2) = 49 at closest approach.
	breach, err := m.MaximalBreach(20)
	if err != nil {
		t.Fatal(err)
	}
	if breach.Distance < 40 {
		t.Errorf("breach distance %v too small; path should hug an edge", breach.Distance)
	}
	if !breach.Undetectable {
		t.Error("breach should avoid the single disk")
	}
	// Path endpoints on the left and right columns.
	first, last := breach.Path[0], breach.Path[len(breach.Path)-1]
	if first.X > 2.5 || last.X < 97.5 {
		t.Errorf("path endpoints wrong: %v .. %v", first, last)
	}
}

func TestBlockingWall(t *testing.T) {
	// A vertical wall of sensors spanning the full height blocks every
	// crossing: breach distance must be below the sensing range.
	var sensors []geom.Point
	for y := 0.0; y <= 100; y += 10 {
		sensors = append(sensors, geom.Point{X: 50, Y: y})
	}
	m, err := NewMap(sensors, 12, geom.Square(100), 2)
	if err != nil {
		t.Fatal(err)
	}
	breach, err := m.MaximalBreach(12)
	if err != nil {
		t.Fatal(err)
	}
	if breach.Undetectable {
		t.Errorf("wall should be impenetrable: breach %v > rs", breach.Distance)
	}
	if breach.Distance > 12 {
		t.Errorf("breach distance %v should be within the wall's reach", breach.Distance)
	}
}

func TestBreachFindsGapInWall(t *testing.T) {
	// A wall with a gap: the breach should route through the gap.
	var sensors []geom.Point
	for y := 0.0; y <= 100; y += 10 {
		if y == 50 {
			continue // gap at the middle
		}
		sensors = append(sensors, geom.Point{X: 50, Y: y})
	}
	m, err := NewMap(sensors, 8, geom.Square(100), 1)
	if err != nil {
		t.Fatal(err)
	}
	breach, err := m.MaximalBreach(8)
	if err != nil {
		t.Fatal(err)
	}
	if !breach.Undetectable {
		t.Errorf("gap of 20 m with rs=8 should be breachable: distance %v", breach.Distance)
	}
	// The path must pass near the gap (x=50, y=50).
	nearGap := false
	for _, p := range breach.Path {
		if math.Abs(p.X-50) < 2 && math.Abs(p.Y-50) < 6 {
			nearGap = true
			break
		}
	}
	if !nearGap {
		t.Error("breach path should thread the gap")
	}
}

func TestKCoverageMonotone(t *testing.T) {
	rng := field.NewRand(3)
	sensors, err := field.Uniform(200, geom.Square(100), rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMap(sensors, 10, geom.Square(100), 2)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for k := 0; k <= 8; k++ {
		f := m.Fraction(k)
		if f > prev+1e-12 {
			t.Fatalf("k-coverage must be monotone: k=%d %v > %v", k, f, prev)
		}
		prev = f
	}
	hist := m.Histogram()
	var sum float64
	for _, v := range hist {
		sum += v
	}
	if !numeric.AlmostEqual(sum, 1, 1e-9, 1e-9) {
		t.Errorf("histogram sums to %v", sum)
	}
	if m.Cells() != 50*50 {
		t.Errorf("cells = %d", m.Cells())
	}
}

func TestSparseONRHasBreach(t *testing.T) {
	// The paper's sparse deployment is nowhere near blocking: even at
	// N=240 a 32 km field with 1 km disks has clear corridors.
	rng := field.NewRand(11)
	sensors, err := field.Uniform(240, geom.Square(32000), rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMap(sensors, 1000, geom.Square(32000), 250)
	if err != nil {
		t.Fatal(err)
	}
	if v := m.VoidFraction(); v < 0.3 {
		t.Errorf("void fraction %v implausibly low for the ONR scenario", v)
	}
	breach, err := m.MaximalBreach(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !breach.Undetectable {
		t.Error("a sparse field should have an undetectable straight-through corridor — " +
			"which is exactly why group detection over time is needed")
	}
}

func TestMaximalBreachValidation(t *testing.T) {
	m, err := NewMap(nil, 5, geom.Square(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MaximalBreach(0); err == nil {
		t.Error("rs=0 should fail")
	}
}
