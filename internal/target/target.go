// Package target generates target trajectories for the simulators: the
// straight-line constant-speed track the analysis assumes, the paper's
// Section-4 bounded-turn random walk, scripted waypoint paths, and the
// variable-speed model from the future-work discussion. A track is the
// sequence of period-boundary positions; period i sweeps the segment from
// position i-1 to position i.
package target

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/groupdetect/gbd/internal/geom"
)

// ErrModel reports an invalid motion model or track request.
var ErrModel = errors.New("target: invalid motion model")

// Model generates target tracks.
type Model interface {
	// Track returns the periods+1 period-boundary positions of a track
	// entering at start with initial heading theta (radians). rng supplies
	// any randomness the model needs; deterministic models ignore it.
	Track(start geom.Point, theta float64, periods int, rng *rand.Rand) ([]geom.Point, error)
	// StepLen reports the expected distance traveled per sensing period,
	// used to compare a model against the analysis speed.
	StepLen() float64
}

func checkPeriods(periods int) error {
	if periods < 1 {
		return fmt.Errorf("periods = %d must be >= 1: %w", periods, ErrModel)
	}
	return nil
}

func checkStep(step float64) error {
	if !(step > 0) || math.IsInf(step, 0) {
		return fmt.Errorf("step = %v must be positive and finite: %w", step, ErrModel)
	}
	return nil
}

// Straight is the analysis model: constant heading, Step meters per period.
type Straight struct {
	// Step is the distance traveled per sensing period (V*t).
	Step float64
}

// Track implements Model.
func (s Straight) Track(start geom.Point, theta float64, periods int, rng *rand.Rand) ([]geom.Point, error) {
	return s.trackInto(nil, start, theta, periods, rng)
}

func (s Straight) trackInto(dst []geom.Point, start geom.Point, theta float64, periods int, _ *rand.Rand) ([]geom.Point, error) {
	if err := checkStep(s.Step); err != nil {
		return nil, err
	}
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	step := geom.Heading(theta).Scale(s.Step)
	track := resize(dst, periods+1)
	track[0] = start
	for i := 1; i <= periods; i++ {
		track[i] = track[i-1].Add(step)
	}
	return track, nil
}

// StepLen implements Model.
func (s Straight) StepLen() float64 { return s.Step }

// RandomWalk is the paper's Section-4 perturbed motion: each period the
// heading changes by an angle drawn uniformly from [-MaxTurn, +MaxTurn]
// before moving Step meters. MaxTurn = pi/4 is the paper's configuration.
type RandomWalk struct {
	// Step is the distance traveled per sensing period.
	Step float64
	// MaxTurn bounds the per-period heading change in radians.
	MaxTurn float64
}

// Track implements Model.
func (w RandomWalk) Track(start geom.Point, theta float64, periods int, rng *rand.Rand) ([]geom.Point, error) {
	return w.trackInto(nil, start, theta, periods, rng)
}

func (w RandomWalk) trackInto(dst []geom.Point, start geom.Point, theta float64, periods int, rng *rand.Rand) ([]geom.Point, error) {
	if err := checkStep(w.Step); err != nil {
		return nil, err
	}
	if w.MaxTurn < 0 || math.IsNaN(w.MaxTurn) || math.IsInf(w.MaxTurn, 0) {
		return nil, fmt.Errorf("max turn = %v must be >= 0 and finite: %w", w.MaxTurn, ErrModel)
	}
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	track := resize(dst, periods+1)
	track[0] = start
	heading := theta
	for i := 1; i <= periods; i++ {
		if w.MaxTurn > 0 {
			heading += (2*rng.Float64() - 1) * w.MaxTurn
		}
		track[i] = track[i-1].Add(geom.Heading(heading).Scale(w.Step))
	}
	return track, nil
}

// StepLen implements Model.
func (w RandomWalk) StepLen() float64 { return w.Step }

// Waypoints is a scripted patrol: the target starts at the first waypoint
// and follows the polyline at Step meters per period, parking at the final
// waypoint once the path is exhausted. The sampled entry point and heading
// are ignored — the script fully determines the track.
type Waypoints struct {
	// Step is the distance traveled per sensing period.
	Step float64
	// Points is the patrol path; at least one point is required.
	Points []geom.Point
}

// Track implements Model.
func (w Waypoints) Track(start geom.Point, theta float64, periods int, rng *rand.Rand) ([]geom.Point, error) {
	return w.trackInto(nil, start, theta, periods, rng)
}

func (w Waypoints) trackInto(dst []geom.Point, _ geom.Point, _ float64, periods int, _ *rand.Rand) ([]geom.Point, error) {
	if err := checkStep(w.Step); err != nil {
		return nil, err
	}
	if len(w.Points) == 0 {
		return nil, fmt.Errorf("no waypoints: %w", ErrModel)
	}
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	track := resize(dst, periods+1)
	pos := w.Points[0]
	track[0] = pos
	next := 1 // index of the waypoint currently steered toward
	for i := 1; i <= periods; i++ {
		remain := w.Step
		for remain > 0 && next < len(w.Points) {
			leg := w.Points[next].Sub(pos)
			d := leg.Norm()
			if d <= remain {
				// Reach the waypoint and continue toward the next one
				// within the same period.
				pos = w.Points[next]
				next++
				remain -= d
				continue
			}
			pos = pos.Add(leg.Scale(remain / d))
			remain = 0
		}
		track[i] = pos // parked at the final waypoint when the path ends
	}
	return track, nil
}

// StepLen implements Model.
func (w Waypoints) StepLen() float64 { return w.Step }

// VariableSpeed is the future-work motion model: constant heading with a
// per-period step drawn uniformly from [MinStep, MaxStep].
type VariableSpeed struct {
	// MinStep and MaxStep bound the per-period travel distance.
	MinStep, MaxStep float64
}

// Track implements Model.
func (v VariableSpeed) Track(start geom.Point, theta float64, periods int, rng *rand.Rand) ([]geom.Point, error) {
	return v.trackInto(nil, start, theta, periods, rng)
}

func (v VariableSpeed) trackInto(dst []geom.Point, start geom.Point, theta float64, periods int, rng *rand.Rand) ([]geom.Point, error) {
	if err := checkStep(v.MinStep); err != nil {
		return nil, err
	}
	if v.MaxStep < v.MinStep || math.IsInf(v.MaxStep, 0) {
		return nil, fmt.Errorf("max step = %v must be >= min step %v and finite: %w", v.MaxStep, v.MinStep, ErrModel)
	}
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	dir := geom.Heading(theta)
	track := resize(dst, periods+1)
	track[0] = start
	for i := 1; i <= periods; i++ {
		step := v.MinStep + rng.Float64()*(v.MaxStep-v.MinStep)
		track[i] = track[i-1].Add(dir.Scale(step))
	}
	return track, nil
}

// StepLen implements Model; the expected step is the midpoint of the
// uniform speed range.
func (v VariableSpeed) StepLen() float64 { return (v.MinStep + v.MaxStep) / 2 }

// ErrConfinement reports that rejection sampling found no track that stays
// inside the field.
var ErrConfinement = errors.New("target: could not sample a track inside the field")

// CheckConfinable refuses a confined Straight track that can never fit: a
// periods-long straight track at least as long as the diagonal of bounds
// stays inside them with probability zero, so SampleInto would spend all
// ConfineAttempts and fail. Other models pass; their tracks may turn or
// slow down enough to fit.
func CheckConfinable(m Model, bounds geom.Rect, periods int) error {
	s, ok := m.(Straight)
	if !ok {
		return nil
	}
	length := s.Step * float64(periods)
	if diag := math.Hypot(bounds.MaxX-bounds.MinX, bounds.MaxY-bounds.MinY); length >= diag {
		return fmt.Errorf("a %g m straight track (%d periods of %g m) is no shorter than the %.0f m field diagonal: %w",
			length, periods, s.Step, diag, ErrConfinement)
	}
	return nil
}

// ConfineAttempts bounds SampleInto's rejection sampling; with tracks well
// shorter than the field side the acceptance rate is high and this is
// generous.
const ConfineAttempts = 10000

// SampleInto draws one track the way every simulator here does: an entry
// point uniform in bounds (X, then Y), a heading uniform in [0, 2π), then
// m's own draws for a periods-long track. With confine it resamples until
// the whole track stays inside bounds — the analysis assumes the full
// ARegion is populated — and fails with ErrConfinement after
// ConfineAttempts tries; without it the first track is returned even if
// it leaves the field. When m is one of this package's models the track is
// drawn into dst's backing array (grown as needed), so a simulation loop
// can resample tracks without allocating; another Model's tracks come from
// its Track. A nil dst draws into a fresh slice.
func SampleInto(dst []geom.Point, m Model, bounds geom.Rect, periods int, confine bool, rng *rand.Rand) ([]geom.Point, error) {
	into, _ := m.(interface {
		trackInto(dst []geom.Point, start geom.Point, theta float64, periods int, rng *rand.Rand) ([]geom.Point, error)
	})
	attempts := 1
	if confine {
		attempts = ConfineAttempts
	}
	for a := 0; a < attempts; a++ {
		start := geom.Point{
			X: bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
			Y: bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
		}
		theta := rng.Float64() * 2 * math.Pi
		var err error
		if into != nil {
			dst, err = into.trackInto(dst, start, theta, periods, rng)
		} else {
			dst, err = m.Track(start, theta, periods, rng)
		}
		if err != nil {
			return nil, err
		}
		if !confine || InBounds(dst, bounds) {
			return dst, nil
		}
	}
	return nil, fmt.Errorf("%d attempts: %w", ConfineAttempts, ErrConfinement)
}

// resize returns dst with length n, reusing its backing array when it is
// large enough.
func resize(dst []geom.Point, n int) []geom.Point {
	if cap(dst) < n {
		return make([]geom.Point, n)
	}
	return dst[:n]
}

// InBounds reports whether every period-boundary position of the track lies
// inside bounds. Because the field is convex, the swept segments between
// in-bounds positions stay in bounds too.
func InBounds(track []geom.Point, bounds geom.Rect) bool {
	for _, p := range track {
		if !bounds.Contains(p) {
			return false
		}
	}
	return true
}
