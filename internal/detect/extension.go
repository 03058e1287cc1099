package detect

import (
	"fmt"

	"github.com/groupdetect/gbd/internal/dist"
	"github.com/groupdetect/gbd/internal/numeric"
)

// NodesResult is the outcome of the Section-4 extension analysis, where the
// system-level decision additionally requires the k reports to come from at
// least h distinct nodes.
type NodesResult struct {
	// Params echoes the analyzed scenario; H is the distinct-node
	// requirement.
	Params Params
	H      int
	// Gh and G are the truncation bounds used.
	Gh, G int
	// Joint is the raw joint distribution of (total reports, distinct
	// reporting nodes), with the node axis saturated at H (the merged
	// "h or more" states the paper describes).
	Joint dist.Joint
	// Mass is the retained probability mass.
	Mass float64
	// DetectionProb is P[reports >= K and nodes >= H], normalized.
	DetectionProb float64
	// RawTail is the un-normalized joint tail.
	RawTail float64
}

// MSApproachNodes analyzes the extended rule "at least K reports from at
// least h distinct nodes within M periods" (Section 4). It enlarges the
// chain state from a report count to a (reports, distinct nodes) pair
// exactly as the paper sketches — the node axis keeps states 0..h with h
// meaning "h or more" — and otherwise reuses the Head/Body/Tail NEDR
// machinery.
func MSApproachNodes(p Params, h int, opt MSOptions) (*NodesResult, error) {
	gh, g, err := truncation(p, opt)
	if err != nil {
		return nil, err
	}
	if h < 1 {
		return nil, fmt.Errorf("h = %d must be >= 1: %w", h, ErrParams)
	}
	ys := h + 1
	c, err := buildChain(p, gh, g, ys, jointMemos, func(r regionSet, g int) (dist.Joint, error) {
		return r.reportJoint(g, ys)
	})
	if err != nil {
		return nil, err
	}
	// Exact report-axis bound across all stages.
	xs := c.head.XSize() + c.bodySteps*(c.body.XSize()-1)
	for _, t := range c.tails {
		xs += t.XSize() - 1
	}

	total := c.head
	for i := 0; i < c.bodySteps; i++ {
		total = dist.ConvolveJoint(total, c.body, xs, ys)
	}
	for _, t := range c.tails {
		total = dist.ConvolveJoint(total, t, xs, ys)
	}
	if c.bodySteps == 0 && len(c.tails) == 0 {
		// M = 1: no convolution ran, so total still aliases the memoized
		// head joint; copy before handing it to the caller.
		total = dist.ConvolveJoint(total, dist.PointJoint(0, 0, 1, 1), xs, ys)
	}

	res := &NodesResult{
		Params:  p,
		H:       h,
		Gh:      gh,
		G:       g,
		Joint:   total,
		Mass:    total.Total(),
		RawTail: total.TailBoth(p.K, h),
	}
	if res.Mass > 0 {
		res.DetectionProb = numeric.Clamp01(res.RawTail / res.Mass)
	}
	return res, nil
}
