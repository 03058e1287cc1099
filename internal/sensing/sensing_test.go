package sensing

import (
	"math"
	"testing"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

func TestNewDiskValidation(t *testing.T) {
	if _, err := NewDisk(0, 0.5); err == nil {
		t.Error("zero range should fail")
	}
	if _, err := NewDisk(1, 0); err == nil {
		t.Error("zero pd should fail")
	}
	if _, err := NewDisk(1, 1.1); err == nil {
		t.Error("pd > 1 should fail")
	}
	d, err := NewDisk(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rs != 5 || d.Pd != 1 {
		t.Errorf("disk = %+v", d)
	}
}

func TestCovers(t *testing.T) {
	d, _ := NewDisk(2, 1)
	seg := geom.Segment{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 10, Y: 0}}
	if !d.Covers(geom.Point{X: 5, Y: 1.9}, seg) {
		t.Error("point inside range not covered")
	}
	if d.Covers(geom.Point{X: 5, Y: 2.1}, seg) {
		t.Error("point outside range covered")
	}
	if !d.Covers(geom.Point{X: 5, Y: 2}, seg) {
		t.Error("boundary should be covered (<=)")
	}
	if !d.Covers(geom.Point{X: -1, Y: 0}, seg) {
		t.Error("point near endpoint within range not covered")
	}
}

func TestNewFalseAlarmValidation(t *testing.T) {
	if _, err := NewFalseAlarm(-0.1); err == nil {
		t.Error("negative p should fail")
	}
	if _, err := NewFalseAlarm(math.NaN()); err == nil {
		t.Error("NaN probability should be rejected")
	}
	if _, err := NewFalseAlarm(1.1); err == nil {
		t.Error("p > 1 should fail")
	}
	if _, err := NewFalseAlarm(0); err != nil {
		t.Error("p = 0 is valid")
	}
}

func TestFalseAlarmFrequency(t *testing.T) {
	f, _ := NewFalseAlarm(0.05)
	rng := field.NewRand(9)
	const trials = 200_000
	hits := 0
	for i := 0; i < trials; i++ {
		if f.Fires(rng) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.05) > 0.003 {
		t.Errorf("empirical rate = %v, want 0.05", rate)
	}
	zero, _ := NewFalseAlarm(0)
	for i := 0; i < 100; i++ {
		if zero.Fires(rng) {
			t.Fatal("p=0 must never fire")
		}
	}
}
