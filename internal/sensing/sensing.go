// Package sensing implements the per-node sensing model from Section 2: a
// sensor whose disk of radius Rs intersects the target's per-period path
// segment detects the target in that period with probability Pd (the
// probability is independent of the overlap length, exactly as the paper
// assumes), and may also emit false alarms.
package sensing

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/groupdetect/gbd/internal/geom"
)

// ErrModel reports invalid sensing parameters.
var ErrModel = errors.New("sensing: invalid model")

// Disk is the boolean disk sensing model.
type Disk struct {
	// Rs is the sensing range in meters.
	Rs float64
	// Pd is the in-range per-period detection probability.
	Pd float64
}

// NewDisk validates and returns a disk sensing model.
func NewDisk(rs, pd float64) (Disk, error) {
	if rs <= 0 {
		return Disk{}, fmt.Errorf("rs = %v must be positive: %w", rs, ErrModel)
	}
	if !(pd > 0 && pd <= 1) {
		return Disk{}, fmt.Errorf("pd = %v must be in (0, 1]: %w", pd, ErrModel)
	}
	return Disk{Rs: rs, Pd: pd}, nil
}

// Covers reports whether the target is within the sensor's range at some
// moment of a period whose path is seg — i.e. the sensor lies in the
// period's detectable region (Figure 1).
func (d Disk) Covers(sensor geom.Point, seg geom.Segment) bool {
	return seg.Dist2(sensor) <= d.Rs*d.Rs
}

// FalseAlarm is a per-sensor, per-period Bernoulli false alarm source. The
// paper excludes false alarms from the detection-probability analysis but
// uses their existence to motivate group-based detection; the falsealarm
// package builds the k lower-bound machinery on this model.
type FalseAlarm struct {
	// P is the probability that a sensor emits a spurious report in a
	// sensing period with no target in range.
	P float64
}

// NewFalseAlarm validates and returns a false alarm model. P may be zero
// (no false alarms).
func NewFalseAlarm(p float64) (FalseAlarm, error) {
	if !(p >= 0 && p <= 1) {
		return FalseAlarm{}, fmt.Errorf("p = %v must be in [0, 1]: %w", p, ErrModel)
	}
	return FalseAlarm{P: p}, nil
}

// Fires reports whether the sensor emits a false alarm this period.
func (f FalseAlarm) Fires(rng *rand.Rand) bool {
	return f.P > 0 && rng.Float64() < f.P
}

// Exposure is the dwell-time-dependent sensing model the paper's footnote 1
// defers to future work: instead of a flat in-range probability Pd, a
// sensor detects the target in a period with probability
//
//	1 - exp(-Lambda * dwell)
//
// where dwell is the time the target spends inside the sensing disk during
// that period. Lambda is the detection rate in 1/second (e.g. an acoustic
// processor integrating SNR over the encounter).
type Exposure struct {
	// Rs is the sensing range in meters.
	Rs float64
	// Lambda is the detection rate per second of in-range dwell.
	Lambda float64
}

// NewExposure validates and returns an exposure sensing model.
func NewExposure(rs, lambda float64) (Exposure, error) {
	if rs <= 0 {
		return Exposure{}, fmt.Errorf("rs = %v must be positive: %w", rs, ErrModel)
	}
	if lambda <= 0 {
		return Exposure{}, fmt.Errorf("lambda = %v must be positive: %w", lambda, ErrModel)
	}
	return Exposure{Rs: rs, Lambda: lambda}, nil
}

// DetectProb returns the per-period detection probability for a target
// that traverses seg at the given speed (m/s): 1 - exp(-Lambda * dwell).
func (e Exposure) DetectProb(sensor geom.Point, seg geom.Segment, speed float64) float64 {
	if speed <= 0 {
		return 0
	}
	overlap := geom.SegmentCircleOverlapLength(seg, sensor, e.Rs)
	if overlap == 0 {
		return 0
	}
	return 1 - math.Exp(-e.Lambda*overlap/speed)
}

// Detects draws the Bernoulli detection outcome for the period.
func (e Exposure) Detects(sensor geom.Point, seg geom.Segment, speed float64, rng *rand.Rand) bool {
	p := e.DetectProb(sensor, seg, speed)
	return p > 0 && rng.Float64() < p
}

// EquivalentPd returns the average per-period detection probability the
// exposure model induces for a sensor placed uniformly at random in the
// period's detectable region: the calibration that maps the footnote-1
// model back onto the paper's flat-Pd analysis. It integrates the chord
// distribution numerically with the given number of samples.
func (e Exposure) EquivalentPd(stepLen, speed float64, samples int, rng *rand.Rand) float64 {
	if samples < 1 || speed <= 0 || stepLen < 0 {
		return 0
	}
	seg := geom.Segment{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: stepLen, Y: 0}}
	bounds := geom.Rect{MinX: -e.Rs, MinY: -e.Rs, MaxX: stepLen + e.Rs, MaxY: e.Rs}
	var sum float64
	hits := 0
	for i := 0; i < samples; i++ {
		p := geom.Point{
			X: bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
			Y: bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
		}
		if seg.Dist(p) > e.Rs {
			continue
		}
		hits++
		sum += e.DetectProb(p, seg, speed)
	}
	if hits == 0 {
		return 0
	}
	return sum / float64(hits)
}
