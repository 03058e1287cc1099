package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/sim"
	"github.com/groupdetect/gbd/internal/target"
)

// nSweep returns the node-count sweep for the figure-9 experiments.
func nSweep(quick bool) []int {
	if quick {
		return []int{60, 150, 240}
	}
	return []int{60, 90, 120, 150, 180, 210, 240}
}

// Fig8 reproduces Figure 8: the smallest g and gh (M-S-approach) and G
// (S-approach) satisfying 99% analysis accuracy as the number of deployed
// nodes grows.
func Fig8(opt Options) (*Table, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig8",
		Title:   "Required g, gh (M-S-approach) and G (S-approach) for 99% analysis accuracy",
		Columns: []string{"N", "g", "gh", "G"},
	}
	step := 20
	if opt.Quick {
		step = 50
	}
	var ns []int
	for n := 60; n <= 260; n += step {
		ns = append(ns, n)
	}
	// Exported fields: sweep points round-trip through JSON checkpoints.
	type fig8Point struct {
		G, Gh, GS int
	}
	points, err := sweepPoints(opt, "fig8", ns, func(_ context.Context, _ int, n int) (fig8Point, error) {
		p := detect.Defaults().WithN(n)
		g, err := detect.RequiredBodyG(p, 0.99)
		if err != nil {
			return fig8Point{}, err
		}
		gh, err := detect.RequiredHeadG(p, 0.99)
		if err != nil {
			return fig8Point{}, err
		}
		gs, err := detect.RequiredSG(p, 0.99)
		if err != nil {
			return fig8Point{}, err
		}
		return fig8Point{G: g, Gh: gh, GS: gs}, nil
	})
	if err != nil {
		return nil, err
	}
	maxRatio := 0.0
	for i, pt := range points {
		if r := float64(pt.GS) / float64(max(pt.Gh, 1)); r > maxRatio {
			maxRatio = r
		}
		t.AddRow(ns[i], pt.G, pt.Gh, pt.GS)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("shape check: G exceeds gh by up to %.1fx; paper reports G >> gh >= g", maxRatio))
	return t, nil
}

// fig9Point holds one analysis-vs-simulation comparison point. Fields are
// exported so points survive JSON checkpoint round-trips bit-for-bit.
type fig9Point struct {
	V        float64
	N        int
	Analysis float64
	Sim      float64
	CILo     float64
	CIHi     float64
}

func runFig9Sweep(opt Options, exp string, normalize bool, model func(p detect.Params) target.Model) ([]fig9Point, error) {
	// Flatten the (V, N) grid so every point is one independent sweep
	// unit; each derives its campaign seed from its own (v, n), so the
	// parallel map returns exactly what the nested sequential loops did.
	type gridPoint struct {
		v float64
		n int
	}
	var grid []gridPoint
	for _, v := range []float64{4, 10} {
		for _, n := range nSweep(opt.Quick) {
			grid = append(grid, gridPoint{v: v, n: n})
		}
	}
	return sweepPoints(opt, exp, grid, func(ctx context.Context, _ int, gp gridPoint) (fig9Point, error) {
		p := detect.Defaults().WithN(gp.n).WithV(gp.v)
		ana, err := detect.MSApproach(p, detect.MSOptions{Gh: 3, G: 3, NoNormalize: !normalize})
		if err != nil {
			return fig9Point{}, err
		}
		cfg := sim.Config{
			Params: p,
			Trials: opt.Trials,
			Seed:   opt.Seed + int64(gp.n) + int64(1000*gp.v),
			RNG:    opt.RNG,
		}
		if model != nil {
			cfg.Model = model(p)
		}
		res, err := sim.RunCtx(ctx, cfg)
		if err != nil {
			return fig9Point{}, err
		}
		return fig9Point{
			V: gp.v, N: gp.n,
			Analysis: ana.DetectionProb,
			Sim:      res.DetectionProb,
			CILo:     res.CI.Lo,
			CIHi:     res.CI.Hi,
		}, nil
	})
}

func fig9Table(id, title string, points []fig9Point) *Table {
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"V(m/s)", "N", "analysis", "simulation", "sim95%lo", "sim95%hi", "abs_err"},
	}
	maxErr := 0.0
	for _, pt := range points {
		err := math.Abs(pt.Analysis - pt.Sim)
		if err > maxErr {
			maxErr = err
		}
		t.AddRow(pt.V, pt.N, pt.Analysis, pt.Sim, pt.CILo, pt.CIHi, err)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("max |analysis - simulation| = %.4f", maxErr))
	return t
}

// Fig9a reproduces Figure 9(a): normalized M-S analysis vs straight-line
// simulation for V = 4 and 10 m/s across the node sweep.
func Fig9a(opt Options) (*Table, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	points, err := runFig9Sweep(opt, "fig9a", true, nil)
	if err != nil {
		return nil, err
	}
	t := fig9Table("fig9a", "Detection probability, analysis vs simulation (straight-line target)", points)
	// Shape note: faster target detected more often.
	for _, n := range nSweep(opt.Quick) {
		var slow, fast float64
		for _, pt := range points {
			if pt.N == n && pt.V == 4 {
				slow = pt.Sim
			}
			if pt.N == n && pt.V == 10 {
				fast = pt.Sim
			}
		}
		if fast < slow {
			t.Notes = append(t.Notes, fmt.Sprintf("WARNING: V=10 below V=4 at N=%d", n))
		}
	}
	return t, nil
}

// Fig9b reproduces Figure 9(b): the same comparison without Eq. (13)
// normalization; the analysis now under-reports and the error grows with N
// and V.
func Fig9b(opt Options) (*Table, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	points, err := runFig9Sweep(opt, "fig9b", false, nil)
	if err != nil {
		return nil, err
	}
	t := fig9Table("fig9b", "Detection probability with un-normalized analysis", points)
	t.ID = "fig9b"
	var last fig9Point
	for _, pt := range points {
		if pt.V == 10 && pt.N == 240 {
			last = pt
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"error at N=240, V=10: %.4f (paper: above 4%%; equals ~1 - etaMS)", last.Sim-last.Analysis))
	return t, nil
}

// Fig9c reproduces Figure 9(c): the straight-line analysis against a
// random-walk target (new heading within [-pi/4, pi/4] each period).
func Fig9c(opt Options) (*Table, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	points, err := runFig9Sweep(opt, "fig9c", true, func(p detect.Params) target.Model {
		return target.RandomWalk{Step: p.Vt(), MaxTurn: math.Pi / 4}
	})
	if err != nil {
		return nil, err
	}
	t := fig9Table("fig9c", "Straight-line analysis vs random-walk simulation", points)
	above := 0
	for _, pt := range points {
		if pt.Sim > pt.Analysis+0.01 {
			above++
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"analysis should upper-bound the random walk: %d/%d points above analysis by >1%%", above, len(points)))
	return t, nil
}
