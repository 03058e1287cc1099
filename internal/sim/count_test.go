package sim

import (
	"slices"
	"testing"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/field"
)

// TestCountPathMatchesQueryPath runs every trial twice on one kernel: once
// on the count path (run(t, false) on a plain campaign) and once on the
// index and per-sensor sense path a detailed trial takes. Every target's
// arrivals per period and its outcome must be identical, under both
// schemes, across the knobs the count path serves.
func TestCountPathMatchesQueryPath(t *testing.T) {
	base := detect.Defaults()
	with := func(f func(p *detect.Params)) detect.Params {
		p := base
		f(&p)
		return p
	}
	mixed := []detect.SensorClass{{Count: 80, Rs: 1000, Pd: 0.9}, {Count: 40, Rs: 2500, Pd: 0.5}, {Count: 30, Rs: 400, Pd: 1}}
	cases := []struct {
		name    string
		cfg     Config
		classes []detect.SensorClass
		targets int
	}{
		{name: "defaults", cfg: Config{Params: base}},
		{name: "N 240", cfg: Config{Params: with(func(p *detect.Params) { p.N = 240 })}},
		{name: "N 1500", cfg: Config{Params: with(func(p *detect.Params) { p.N = 1500 })}},
		{name: "V 4", cfg: Config{Params: with(func(p *detect.Params) { p.V = 4 })}},
		{name: "V 20 M 12", cfg: Config{Params: with(func(p *detect.Params) { p.V, p.M = 20, 12 })}},
		{name: "K 2 M 8", cfg: Config{Params: with(func(p *detect.Params) { p.K, p.M = 2, 8 })}},
		{name: "K 1 M 1", cfg: Config{Params: with(func(p *detect.Params) { p.K, p.M = 1, 1 })}},
		{name: "Pd 1", cfg: Config{Params: with(func(p *detect.Params) { p.Pd = 1 })}},
		{name: "Pd 0.3", cfg: Config{Params: with(func(p *detect.Params) { p.Pd = 0.3 })}},
		{name: "false alarms", cfg: Config{Params: base, FalseAlarmP: 0.002}},
		{name: "V 4 mission 50", cfg: Config{Params: with(func(p *detect.Params) { p.V = 4 }), MissionPeriods: 50}},
		{name: "unconfined", cfg: Config{Params: with(func(p *detect.Params) { p.N = 400 }), Confine: ConfineNone}},
		{name: "mixed classes", cfg: Config{Params: base}, classes: mixed},
		{name: "two targets", cfg: Config{Params: with(func(p *detect.Params) { p.N = 300 })}, targets: 2},
		{name: "two targets, mixed, false alarms, mission 30", cfg: Config{Params: base, FalseAlarmP: 0.001, MissionPeriods: 30}, classes: mixed, targets: 2},
	}
	for _, c := range cases {
		for _, scheme := range []field.RNGScheme{field.SchemeLegacy, field.SchemePhilox} {
			cfg := c.cfg
			cfg.Trials, cfg.Seed, cfg.Workers, cfg.RNG = 150, 28, 1, scheme
			targets := max(c.targets, 1)
			pl, err := newPlan(cfg, c.classes, targets, 3000)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !pl.counted {
				t.Fatalf("%s: the plan does not take the count path", c.name)
			}
			k := getKernel(pl)
			reports := 0
			for trial := range cfg.Trials {
				if err := k.run(trial, false); err != nil {
					t.Fatalf("%s %v trial %d: %v", c.name, scheme, trial, err)
				}
				arrivals, out := slices.Clone(k.arrivals), slices.Clone(k.out)
				if err := k.run(trial, true); err != nil {
					t.Fatalf("%s %v trial %d: %v", c.name, scheme, trial, err)
				}
				if !slices.Equal(arrivals, k.arrivals) || !slices.Equal(out, k.out) {
					t.Fatalf("%s %v trial %d:\ncount path arrivals %v outcomes %v\nquery path arrivals %v outcomes %v",
						c.name, scheme, trial, arrivals, out, k.arrivals, k.out)
				}
				for _, o := range out {
					reports += o.reports
				}
			}
			putKernel(k)
			if reports == 0 {
				t.Errorf("%s %v: no trial generated a report; the comparison shows nothing", c.name, scheme)
			}
		}
	}
}
