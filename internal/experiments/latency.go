package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/plot"
	"github.com/groupdetect/gbd/internal/sim"
)

// Latency profiles detection delay (an extension beyond the paper's
// end-of-window probability): the analytical CDF of the first period at
// which K reports have accumulated, against the simulator's latency
// histogram.
func Latency(opt Options) (*Table, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	p := detect.Defaults()
	t := &Table{
		ID:      "latency",
		Title:   "Detection latency: P[detected by period m], analysis vs simulation",
		Columns: []string{"period", "analysis_cdf", "simulation_cdf"},
	}
	cdf, err := detect.DetectionLatency(p, detect.MSOptions{Gh: 3, G: 3})
	if err != nil {
		return nil, err
	}
	res, err := sim.RunCtx(opt.ctx(), sim.Config{Params: p, Trials: opt.Trials, Seed: opt.Seed, RNG: opt.RNG})
	if err != nil {
		return nil, err
	}
	cum := 0.0
	simCDF := make([]float64, p.M+1)
	for m := 1; m <= p.M; m++ {
		cum += float64(res.Latency.Count(m)) / float64(res.Trials)
		simCDF[m] = cum
	}
	for m := cdf.FirstPeriod; m <= p.M; m++ {
		t.AddRow(m, cdf.ByPeriod(m), simCDF[m])
	}
	if med, ok := cdf.Quantile(res.DetectionProb / 2); ok {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"half of all eventual detections occur by period %d of %d", med, p.M))
	}
	return t, nil
}

// TApproachExplosion quantifies the Section-3.2 state explosion that
// motivates the M-S-approach: the Temporal approach's peak Markov state
// count as the coverage span ms grows, against the M-S chain's state count.
func TApproachExplosion(opt Options) (*Table, error) {
	if _, err := opt.withDefaults(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "tapproach",
		Title:   "T-approach state explosion vs M-S-approach (Section 3.2)",
		Columns: []string{"V(m/s)", "ms", "T_peak_states", "MS_chain_states", "match"},
	}
	// Fixed small window so the slowest case stays runnable; the trend is
	// the artifact.
	speeds := []float64{34, 17, 9, 5}
	if opt.Quick {
		speeds = []float64{34, 9}
	}
	for _, v := range speeds {
		p := detect.Defaults().WithV(v).WithM(12).WithN(60)
		tRes, err := detect.TApproach(p, detect.TOptions{Gh: 2, G: 1, MaxStates: 1 << 23})
		if err != nil {
			t.AddRow(v, p.Ms(), "exploded", "-", "-")
			continue
		}
		msRes, err := detect.MSApproach(p, detect.MSOptions{Gh: 2, G: 1})
		if err != nil {
			return nil, err
		}
		match := "yes"
		if diff := tRes.DetectionProb - msRes.DetectionProb; diff > 1e-9 || diff < -1e-9 {
			match = fmt.Sprintf("DIFF %.2e", diff)
		}
		t.AddRow(v, p.Ms(), tRes.PeakStates, len(msRes.PMF), match)
	}
	t.Notes = append(t.Notes,
		"the T-approach state count multiplies with ms while the M-S chain stays linear in M*Z")
	return t, nil
}

// Chart renders a plottable experiment table as an ASCII figure. The
// second return value reports whether the table has a chart form.
func Chart(tbl *Table) (string, bool) {
	switch tbl.ID {
	case "fig8":
		return chartFig8(tbl)
	case "fig9a", "fig9b", "fig9c":
		return chartFig9(tbl)
	case "latency":
		return chartLatency(tbl)
	default:
		return "", false
	}
}

func parseColumn(tbl *Table, col int, filter func(row []string) bool) []float64 {
	var out []float64
	for _, row := range tbl.Rows {
		if filter != nil && !filter(row) {
			continue
		}
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

func chartFig8(tbl *Table) (string, bool) {
	c := plot.New(tbl.Title)
	c.XLabel = "number of nodes deployed"
	ns := parseColumn(tbl, 0, nil)
	for i, name := range []string{"g (M-S)", "gh (M-S)", "G (S)"} {
		ys := parseColumn(tbl, i+1, nil)
		if ns == nil || ys == nil {
			return "", false
		}
		if err := c.Add(name, ns, ys); err != nil {
			return "", false
		}
	}
	out, err := c.Render()
	return out, err == nil
}

func chartFig9(tbl *Table) (string, bool) {
	c := plot.New(tbl.Title)
	c.XLabel = "number of nodes deployed"
	for _, v := range []string{"4.0000", "10.0000"} {
		filter := func(row []string) bool { return row[0] == v }
		ns := parseColumn(tbl, 1, filter)
		ana := parseColumn(tbl, 2, filter)
		simP := parseColumn(tbl, 3, filter)
		if ns == nil || ana == nil || simP == nil {
			return "", false
		}
		vName, _, _ := strings.Cut(v, ".")
		if err := c.Add("analysis V="+vName, ns, ana); err != nil {
			return "", false
		}
		if err := c.Add("simulation V="+vName, ns, simP); err != nil {
			return "", false
		}
	}
	out, err := c.Render()
	return out, err == nil
}

func chartLatency(tbl *Table) (string, bool) {
	c := plot.New(tbl.Title)
	c.XLabel = "sensing period"
	ms := parseColumn(tbl, 0, nil)
	ana := parseColumn(tbl, 1, nil)
	simP := parseColumn(tbl, 2, nil)
	if ms == nil || ana == nil || simP == nil {
		return "", false
	}
	if c.Add("analysis", ms, ana) != nil || c.Add("simulation", ms, simP) != nil {
		return "", false
	}
	out, err := c.Render()
	return out, err == nil
}
