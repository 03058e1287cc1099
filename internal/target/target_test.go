package target

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/groupdetect/gbd/internal/geom"
)

func TestStraightTrack(t *testing.T) {
	m := Straight{Step: 10}
	track, err := m.Track(geom.Point{X: 5, Y: 5}, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(track) != 4 {
		t.Fatalf("track length %d, want 4", len(track))
	}
	want := []geom.Point{{X: 5, Y: 5}, {X: 15, Y: 5}, {X: 25, Y: 5}, {X: 35, Y: 5}}
	for i := range want {
		if track[i].Dist(want[i]) > 1e-9 {
			t.Errorf("track[%d] = %v, want %v", i, track[i], want[i])
		}
	}
}

func TestStraightHeading(t *testing.T) {
	m := Straight{Step: 2}
	track, err := m.Track(geom.Point{}, math.Pi/2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if track[1].Dist(geom.Point{X: 0, Y: 2}) > 1e-9 {
		t.Errorf("heading pi/2 should move +Y, got %v", track[1])
	}
}

func TestStraightValidation(t *testing.T) {
	if _, err := (Straight{Step: 0}).Track(geom.Point{}, 0, 3, nil); err == nil {
		t.Error("zero step should fail")
	}
	if _, err := (Straight{Step: 10}).Track(geom.Point{}, 0, 0, nil); err == nil {
		t.Error("zero periods should fail")
	}
}

func TestRandomWalkStepLengthPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandomWalk{Step: 7, MaxTurn: math.Pi / 4}
	track, err := m.Track(geom.Point{}, 0.3, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(track); i++ {
		if d := track[i].Dist(track[i-1]); math.Abs(d-7) > 1e-9 {
			t.Fatalf("period %d moved %v, want 7", i, d)
		}
	}
}

func TestRandomWalkTurnBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	maxTurn := math.Pi / 6
	m := RandomWalk{Step: 5, MaxTurn: maxTurn}
	track, err := m.Track(geom.Point{}, 1.1, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	prev := track[1].Sub(track[0]).Angle()
	for i := 2; i < len(track); i++ {
		cur := track[i].Sub(track[i-1]).Angle()
		diff := math.Abs(math.Mod(cur-prev+3*math.Pi, 2*math.Pi) - math.Pi)
		if diff > maxTurn+1e-9 {
			t.Fatalf("period %d turned %v, bound %v", i, diff, maxTurn)
		}
		prev = cur
	}
}

func TestRandomWalkZeroTurnIsStraight(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	walk, err := RandomWalk{Step: 4, MaxTurn: 0}.Track(geom.Point{X: 1, Y: 2}, 0.8, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	straight, err := Straight{Step: 4}.Track(geom.Point{X: 1, Y: 2}, 0.8, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range walk {
		if walk[i].Dist(straight[i]) > 1e-9 {
			t.Fatalf("position %d: walk %v vs straight %v", i, walk[i], straight[i])
		}
	}
}

func TestWaypointsFollowsPathAndParks(t *testing.T) {
	m := Waypoints{
		Step:   10,
		Points: []geom.Point{{X: 0, Y: 0}, {X: 25, Y: 0}, {X: 25, Y: 5}},
	}
	track, err := m.Track(geom.Point{X: 99, Y: 99}, 2.2, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Entry point and heading are ignored: the track starts at the script.
	if track[0] != (geom.Point{X: 0, Y: 0}) {
		t.Errorf("track starts at %v, want first waypoint", track[0])
	}
	// Periods 1-2 advance along the first leg; period 3 turns the corner
	// (5 m remain on leg one, 5 m spent on leg two); afterwards it parks.
	want := []geom.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 25, Y: 5}, {X: 25, Y: 5}, {X: 25, Y: 5},
	}
	for i := range want {
		if track[i].Dist(want[i]) > 1e-9 {
			t.Errorf("track[%d] = %v, want %v", i, track[i], want[i])
		}
	}
}

func TestWaypointsValidation(t *testing.T) {
	if _, err := (Waypoints{Step: 10}).Track(geom.Point{}, 0, 3, nil); err == nil {
		t.Error("empty waypoint list should fail")
	}
}

func TestVariableSpeedBoundsSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := VariableSpeed{MinStep: 3, MaxStep: 9}
	track, err := m.Track(geom.Point{}, 0.5, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	dir := geom.Heading(0.5)
	for i := 1; i < len(track); i++ {
		d := track[i].Dist(track[i-1])
		if d < 3-1e-9 || d > 9+1e-9 {
			t.Fatalf("period %d step %v outside [3, 9]", i, d)
		}
		// Heading never changes.
		u := track[i].Sub(track[i-1]).Unit()
		if math.Abs(u.X-dir.X) > 1e-9 || math.Abs(u.Y-dir.Y) > 1e-9 {
			t.Fatalf("period %d heading drifted", i)
		}
	}
}

func TestVariableSpeedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := (VariableSpeed{MinStep: 5, MaxStep: 4}).Track(geom.Point{}, 0, 3, rng); err == nil {
		t.Error("max < min should fail")
	}
	if _, err := (VariableSpeed{MinStep: 0, MaxStep: 4}).Track(geom.Point{}, 0, 3, rng); err == nil {
		t.Error("zero min step should fail")
	}
}

func TestInBounds(t *testing.T) {
	bounds := geom.Square(100)
	inside := []geom.Point{{X: 10, Y: 10}, {X: 50, Y: 90}}
	if !InBounds(inside, bounds) {
		t.Error("inside track reported out of bounds")
	}
	outside := []geom.Point{{X: 10, Y: 10}, {X: 150, Y: 50}}
	if InBounds(outside, bounds) {
		t.Error("escaping track reported in bounds")
	}
	if !InBounds(nil, bounds) {
		t.Error("empty track is vacuously in bounds")
	}
}

// TestSampleConfinement: rejection sampling keeps every track inside the
// field and gives up with ErrConfinement when no track can fit; without
// confinement the first draw is returned as is.
func TestSampleConfinement(t *testing.T) {
	bounds := geom.Square(1000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		track, err := SampleInto(nil, Straight{Step: 50}, bounds, 10, true, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !InBounds(track, bounds) {
			t.Fatalf("confined track left the field: %v", track)
		}
	}
	long := Straight{Step: 500} // 5 km in a 1 km field
	if _, err := SampleInto(nil, long, bounds, 10, true, rng); !errors.Is(err, ErrConfinement) {
		t.Errorf("impossible confinement: err = %v, want ErrConfinement", err)
	}
	track, err := SampleInto(nil, long, bounds, 10, false, rng)
	if err != nil || len(track) != 11 || InBounds(track, bounds) {
		t.Errorf("unconfined track = %v, %v; want the first 11-point draw, leaving the field", track, err)
	}
}

// TestCheckConfinable: a straight track at least as long as the field diagonal
// is refused with both lengths named; a shorter one, and any other model,
// passes.
func TestCheckConfinable(t *testing.T) {
	bounds := geom.Square(1000) // diagonal 1414 m
	err := CheckConfinable(Straight{Step: 150}, bounds, 10)
	if !errors.Is(err, ErrConfinement) || !strings.Contains(err.Error(), "1500 m") || !strings.Contains(err.Error(), "1414 m") {
		t.Errorf("1500 m track: err = %v, want ErrConfinement naming 1500 m and 1414 m", err)
	}
	if err := CheckConfinable(Straight{Step: 140}, bounds, 10); err != nil {
		t.Errorf("1400 m track: err = %v, want nil", err)
	}
	if err := CheckConfinable(RandomWalk{Step: 150, MaxTurn: math.Pi / 4}, bounds, 10); err != nil {
		t.Errorf("random walk: err = %v, want nil", err)
	}
}

// trackOnly is a Model from outside the package: SampleInto must fall
// back to its Track.
type trackOnly struct{ s Straight }

func (m trackOnly) Track(start geom.Point, theta float64, periods int, rng *rand.Rand) ([]geom.Point, error) {
	return m.s.Track(start, theta, periods, rng)
}

func (m trackOnly) StepLen() float64 { return m.s.Step }

// TestSampleIntoMatchesSample: for every model, drawing into a reused
// buffer gives the tracks a fresh (nil) buffer gets and leaves the stream
// where a fresh draw leaves it, and for this package's models a warm
// buffer allocates nothing.
func TestSampleIntoMatchesSample(t *testing.T) {
	bounds := geom.Square(2000)
	models := []Model{
		Straight{Step: 60},
		RandomWalk{Step: 60, MaxTurn: math.Pi / 4},
		Waypoints{Step: 60, Points: []geom.Point{{X: 100, Y: 100}, {X: 900, Y: 400}}},
		VariableSpeed{MinStep: 40, MaxStep: 80},
		trackOnly{Straight{Step: 60}},
	}
	for _, m := range models {
		a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		var buf []geom.Point
		for i := 0; i < 30; i++ {
			want, err := SampleInto(nil, m, bounds, 12, true, a)
			if err != nil {
				t.Fatal(err)
			}
			if buf, err = SampleInto(buf, m, bounds, 12, true, b); err != nil {
				t.Fatal(err)
			}
			if len(buf) != len(want) {
				t.Fatalf("%T draw %d: %d points, want %d", m, i, len(buf), len(want))
			}
			for j := range want {
				if buf[j] != want[j] {
					t.Fatalf("%T draw %d point %d: %v, want %v", m, i, j, buf[j], want[j])
				}
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("%T: a reused buffer left the stream elsewhere than a fresh one", m)
		}
		if _, foreign := m.(trackOnly); foreign {
			continue
		}
		if allocs := testing.AllocsPerRun(100, func() {
			buf, _ = SampleInto(buf, m, bounds, 12, true, b)
		}); allocs != 0 {
			t.Errorf("%T: SampleInto into a warm buffer: %v allocs, want 0", m, allocs)
		}
	}
}
