package detect

import (
	"fmt"

	"github.com/groupdetect/gbd/internal/numeric"
)

// Small-window (M <= ms) evaluation.
//
// The paper analyzes the general case M > ms, where the ARegion decomposes
// into one Head NEDR, M-ms-1 Body NEDRs and ms Tail NEDRs. For M <= ms no
// Body stage fits and the window end cuts coverage spans short, but the
// same stage machinery still applies:
//
//   - The Head stage is still the full DR of period 1, except a sensor can
//     cover the target for at most M periods before the window closes.
//     Folding every AreaH(i) with i >= M into the span-M subarea accounts
//     for that exactly (truncatedHeadAreas below).
//   - Period i (2 <= i <= M) has M-i+1 periods remaining, which is exactly
//     tail step j = ms-M+i of the general decomposition: its NEDR is the
//     same crescent and AreaT(j, .) already folds spans at ms+1-j = M-i+1.
//     So the last M-1 of the ms cached tail PMFs chain unchanged.
//
// Area accounting confirms the decomposition: the truncated head keeps the
// full DR area 2*Rs*Vt + pi*Rs^2 and each tail crescent is 2*Rs*Vt, so the
// total is 2*M*Rs*Vt + pi*Rs^2 = ARegionArea(M) (asserted in tests). At
// M = 1 the head folds entirely into span 1, so with gh = N the report
// distribution is Binomial(N, p_indi) — the Section 3.1 preliminary.

// truncatedHeadAreas folds the head subareas at coverage span m: within an
// m-period window a sensor observes the target for at most m periods, so
// every longer natural span contributes to the span-m subarea instead.
// head is AreaHAll() (1-based, len ms+2); m must satisfy 1 <= m <= ms.
func truncatedHeadAreas(head []float64, m int) []float64 {
	out := make([]float64, m+1)
	copy(out[1:], head[1:m])
	var fold numeric.Kahan
	for k := m; k < len(head); k++ {
		fold.Add(head[k])
	}
	out[m] = fold.Sum()
	return out
}

// truncatedHead builds the window-truncated Head stage of p (p.M <= ms)
// with the head bound gh.
func truncatedHead[T any](p Params, gh int, build regionBuilder[T]) (T, error) {
	gm, err := p.Geometry()
	if err != nil {
		var zero T
		return zero, err
	}
	head, err := build(p.region(truncatedHeadAreas(cachedAreas(gm).head, p.M)), gh)
	if err != nil {
		return head, fmt.Errorf("truncated head stage: %w", err)
	}
	return head, nil
}
