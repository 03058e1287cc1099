package detect

import (
	"context"
	"fmt"
	"sort"
)

// LatencyCDF is the distribution of detection latency: P[m] is the
// probability that the K-of-M rule has fired by the end of sensing period
// FirstPeriod+m after the target entered the field.
type LatencyCDF struct {
	// FirstPeriod is the earliest period the analysis covers.
	// DetectionLatency computes the full profile from period 1.
	FirstPeriod int
	// P[i] is the probability of detection by period FirstPeriod+i.
	P []float64
}

// ByPeriod returns P[detected by period m], or 0 for periods before
// FirstPeriod and the final value for periods beyond the computed range.
func (l LatencyCDF) ByPeriod(m int) float64 {
	i := m - l.FirstPeriod
	switch {
	case i < 0 || len(l.P) == 0:
		return 0
	case i >= len(l.P):
		return l.P[len(l.P)-1]
	default:
		return l.P[i]
	}
}

// Quantile returns the earliest period by which the detection probability
// reaches q, or (0, false) if it never does within the window.
func (l LatencyCDF) Quantile(q float64) (int, bool) {
	i := sort.SearchFloat64s(l.P, q)
	if i == len(l.P) {
		return 0, false
	}
	return l.FirstPeriod + i, true
}

// DetectionLatency computes the analytical latency CDF for periods 1..M:
// the probability of accumulating K reports within the first m periods is
// exactly the M-S-approach run with window m, so the CDF is a sweep of
// truncated windows (the small-window evaluator covers m <= ms). This
// extends the paper's end-of-window detection probability (its Figure 9
// value is the CDF's last point) to the full time profile — a "how long
// until we notice" curve.
func DetectionLatency(p Params, opt MSOptions) (LatencyCDF, error) {
	return DetectionLatencyCtx(context.Background(), p, opt)
}

// DetectionLatencyCtx is DetectionLatency under a context: the ctx is
// polled between window evaluations (one per sensing period), so a
// cancelled caller waits at most one M-S-approach run. A run that
// completes is identical to DetectionLatency.
func DetectionLatencyCtx(ctx context.Context, p Params, opt MSOptions) (LatencyCDF, error) {
	if err := p.Validate(); err != nil {
		return LatencyCDF{}, err
	}
	out := LatencyCDF{
		FirstPeriod: 1,
		P:           make([]float64, 0, p.M),
	}
	prev := 0.0
	for m := 1; m <= p.M; m++ {
		if err := ctx.Err(); err != nil {
			return LatencyCDF{}, err
		}
		res, err := MSApproach(p.WithM(m), opt)
		if err != nil {
			return LatencyCDF{}, err
		}
		v := res.DetectionProb
		// Guard against sub-ulp non-monotonicity from independent
		// truncation planning per window.
		if v < prev {
			v = prev
		}
		out.P = append(out.P, v)
		prev = v
	}
	return out, nil
}

// RequiredN returns the smallest sensor count in [1, nMax] whose
// M-S-approach detection probability reaches target, using binary search
// over the monotone response. It returns an error when even nMax falls
// short — the deployment-sizing primitive behind the border example.
func RequiredN(p Params, target float64, nMax int, opt MSOptions) (int, error) {
	if err := p.WithN(nMax).Validate(); err != nil {
		return 0, err
	}
	if !(target > 0 && target < 1) {
		return 0, fmt.Errorf("target probability %v must be in (0, 1): %w", target, ErrParams)
	}
	if nMax < 1 {
		return 0, fmt.Errorf("nMax = %d must be >= 1: %w", nMax, ErrParams)
	}
	probAt := func(n int) (float64, error) {
		res, err := MSApproach(p.WithN(n), opt)
		if err != nil {
			return 0, err
		}
		return res.DetectionProb, nil
	}
	top, err := probAt(nMax)
	if err != nil {
		return 0, err
	}
	if top < target {
		return 0, fmt.Errorf("target %v unreachable: P(N=%d) = %v: %w", target, nMax, top, ErrParams)
	}
	lo, hi := 1, nMax
	for lo < hi {
		mid := (lo + hi) / 2
		v, err := probAt(mid)
		if err != nil {
			return 0, err
		}
		if v >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// MissionBounds brackets the detection probability of a long mission: the
// target is present for missionPeriods (>= M) and the system triggers when
// ANY sliding window of M consecutive periods accumulates K reports. The
// paper's analysis covers the single-window case (mission == M); for longer
// missions the exact probability is open, but it is sandwiched between
//
//	lo: the single-window probability over the first M periods, and
//	hi: the union bound over all missionPeriods-M+1 windows
//	    (each window marginally behaves like a fresh M-period track).
//
// Simulation (sim.Config.MissionPeriods) measures the true value between
// the two.
func MissionBounds(p Params, missionPeriods int, opt MSOptions) (lo, hi float64, err error) {
	if missionPeriods < p.M {
		return 0, 0, fmt.Errorf("mission %d shorter than window %d: %w", missionPeriods, p.M, ErrParams)
	}
	res, err := MSApproach(p, opt)
	if err != nil {
		return 0, 0, err
	}
	lo = res.DetectionProb
	windows := float64(missionPeriods - p.M + 1)
	hi = windows * res.DetectionProb
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}
