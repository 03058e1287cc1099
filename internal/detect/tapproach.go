package detect

import (
	"fmt"
	"sort"

	"github.com/groupdetect/gbd/internal/dist"
	"github.com/groupdetect/gbd/internal/numeric"
)

// TOptions configures the Temporal approach demonstrator.
type TOptions struct {
	// G bounds the number of sensors admitted per period's NEDR, matching
	// the Body/Tail truncation of the M-S-approach. Zero plans it from
	// TargetAccuracy.
	G int
	// Gh bounds the Head-period (period 1) sensor count. Zero plans it.
	Gh int
	// TargetAccuracy is used when G or Gh is zero; zero means 0.99. It
	// must lie in (0, 1) even when both bounds are given.
	TargetAccuracy float64
	// MaxStates aborts the computation when the per-period Markov state
	// count exceeds it, returning ErrStateExplosion. Zero means 2^22
	// (about four million states), enough for small ms but far below what
	// the ONR V=4 scenario (ms = 9) demands — which is the paper's point.
	MaxStates int
}

// ErrStateExplosion reports that the Temporal approach exceeded its state
// budget — the failure mode Section 3.2 predicts.
type ErrStateExplosion struct {
	// Period is the sensing period at which the budget was exceeded;
	// States the state count reached.
	Period int
	States int
}

// Error implements the error interface.
func (e *ErrStateExplosion) Error() string {
	return fmt.Sprintf("detect: temporal approach state explosion: %d states at period %d", e.States, e.Period)
}

// TResult is the outcome of the Temporal-approach analysis.
type TResult struct {
	// Params echoes the scenario; Gh and G the truncation bounds used.
	Params Params
	Gh, G  int
	// PMF is the raw distribution of total reports in M periods.
	PMF dist.PMF
	// Mass is the retained probability mass.
	Mass float64
	// DetectionProb is the normalized PM[X >= K].
	DetectionProb float64
	// PeakStates is the largest number of simultaneous Markov states — the
	// quantity that explodes with ms. The equivalent M-S-approach chain
	// needs only MZ+1 scalar states.
	PeakStates int
}

// encodeTState packs a Temporal-approach Markov state — the occupancy
// vector of currently covering sensors by remaining coverage span, plus
// the accumulated report count — into a map key.
func encodeTState(remaining []int, reports int) string {
	buf := make([]byte, 0, len(remaining)*2+3)
	for _, c := range remaining {
		buf = append(buf, byte(c), ',')
	}
	buf = append(buf, byte(reports), byte(reports>>8), byte(reports>>16))
	return string(buf)
}

// TApproach evaluates group-based detection with the Temporal approach the
// paper describes and rejects in Section 3.2: walk the sensing periods in
// order, tracking how many sensors currently cover the target and for how
// many more periods each will keep covering it. The per-period state is a
// vector of occupancy counts, so the state space multiplies with ms — the
// "millions or more states" explosion. The result, where it is feasible to
// compute at all, matches the M-S-approach exactly (tests assert this),
// because both make the same per-NEDR independence assumption.
//
// PeakStates in the result quantifies the explosion; MaxStates aborts runs
// that would not finish.
func TApproach(p Params, opt TOptions) (*TResult, error) {
	gh, g, err := truncation(p, MSOptions{Gh: opt.Gh, G: opt.G, TargetAccuracy: opt.TargetAccuracy})
	if err != nil {
		return nil, err
	}
	gm, err := p.Geometry()
	if err != nil {
		return nil, err
	}
	if p.M <= gm.Ms {
		return nil, fmt.Errorf("M = %d, ms = %d for the T-approach: %w", p.M, gm.Ms, ErrWindowTooShort)
	}
	maxStates := opt.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 22
	}

	head := p.region(gm.AreaHAll())
	body := p.region(gm.AreaBAll())
	if err := head.validate(); err != nil {
		return nil, err
	}
	if err := body.validate(); err != nil {
		return nil, err
	}

	// Per-period arrival distributions: joint over (sensors per span).
	// arrivals[stage][k] lists (spanCounts, prob) for k admitted sensors.
	headArrivals := arrivalDistribution(head, gh)
	bodyArrivals := arrivalDistribution(body, g)

	span := gm.Ms + 1
	type entry struct {
		remaining []int
		reports   int
		prob      float64
	}
	states := map[string]entry{}
	zero := make([]int, span)
	states[encodeTState(zero, 0)] = entry{remaining: zero, reports: 0, prob: 1}
	peak := 1

	for period := 1; period <= p.M; period++ {
		arr := bodyArrivals
		if period == 1 {
			arr = headArrivals
		}
		next := make(map[string]entry, len(states)*2)
		for _, st := range states {
			for _, a := range arr {
				// Admit the arrivals: a.spans[i] sensors with total span
				// i+1 periods, clipped to the observation window.
				rem := make([]int, span)
				copy(rem, st.remaining)
				for i, c := range a.spans {
					if c == 0 {
						continue
					}
					sp := i + 1
					if left := p.M - period + 1; sp > left {
						sp = left // coverage beyond period M is unobserved
					}
					rem[sp-1] += c
				}
				active := 0
				for _, c := range rem {
					active += c
				}
				// Each active covering sensor reports with probability Pd.
				for reps := 0; reps <= active; reps++ {
					pr := st.prob * a.prob * numeric.BinomialPMF(active, reps, p.Pd)
					if pr == 0 {
						continue
					}
					// Advance time: spans decrement, last-period sensors leave.
					nrem := make([]int, span)
					copy(nrem, rem[1:])
					key := encodeTState(nrem, st.reports+reps)
					e, ok := next[key]
					if !ok {
						e = entry{remaining: nrem, reports: st.reports + reps}
					}
					e.prob += pr
					next[key] = e
				}
			}
		}
		states = next
		if len(states) > peak {
			peak = len(states)
		}
		if len(states) > maxStates {
			return nil, &ErrStateExplosion{Period: period, States: len(states)}
		}
	}

	maxReports := 0
	for _, st := range states {
		if st.reports > maxReports {
			maxReports = st.reports
		}
	}
	pmf := make(dist.PMF, maxReports+1)
	for _, st := range states {
		pmf[st.reports] += st.prob
	}
	res := &TResult{
		Params:     p,
		Gh:         gh,
		G:          g,
		PMF:        pmf,
		Mass:       pmf.Total(),
		PeakStates: peak,
	}
	if res.Mass > 0 {
		res.DetectionProb = numeric.Clamp01(pmf.Tail(p.K) / res.Mass)
	}
	return res, nil
}

// arrival is one admitted-arrival configuration for a period: spans[i]
// sensors that will cover the target for i+1 periods, with probability
// prob.
type arrival struct {
	spans []int
	prob  float64
}

// arrivalDistribution enumerates all ways at most g sensors can land in
// the region's subareas, with the binomial placement prefactor — the same
// quantity Algorithm 1 enumerates, kept as explicit configurations because
// the Temporal approach must remember who keeps covering.
func arrivalDistribution(r regionSet, g int) []arrival {
	if g > r.n {
		g = r.n
	}
	k := r.maxSpan()
	total := r.totalArea()
	frac := total / r.fieldArea
	weights := make([]float64, k)
	for i := 1; i <= k; i++ {
		if total > 0 {
			weights[i-1] = r.areas[i] / total
		}
	}
	var out []arrival
	var recurse func(idx, left int, spans []int, prob float64)
	recurse = func(idx, left int, spans []int, prob float64) {
		if idx == k {
			if left == 0 {
				out = append(out, arrival{spans: append([]int(nil), spans...), prob: prob})
			}
			return
		}
		for c := 0; c <= left; c++ {
			spans[idx] = c
			// Multinomial factor: choose which of the remaining sensors
			// land here; weights^c.
			w := numeric.Choose(left, c) * pow(weights[idx], c)
			if w > 0 {
				recurse(idx+1, left-c, spans, prob*w)
			}
			spans[idx] = 0
		}
	}
	for c := 0; c <= g; c++ {
		base := numeric.BinomialPMF(r.n, c, frac)
		if base == 0 {
			continue
		}
		spans := make([]int, k)
		recurse(0, c, spans, base)
	}
	// Deterministic order helps reproducibility of float summation.
	sort.Slice(out, func(i, j int) bool { return less(out[i].spans, out[j].spans) })
	return out
}

func pow(x float64, n int) float64 {
	p := 1.0
	for i := 0; i < n; i++ {
		p *= x
	}
	return p
}

func less(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
