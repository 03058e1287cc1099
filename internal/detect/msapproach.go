package detect

import (
	"fmt"

	"github.com/groupdetect/gbd/internal/dist"
	"github.com/groupdetect/gbd/internal/markov"
	"github.com/groupdetect/gbd/internal/numeric"
)

// Evaluator selects how Eq. (12) is evaluated.
type Evaluator int

const (
	// EvaluatorConvolution exploits that every stage's transition matrix is
	// a shift kernel, so the chained vector-matrix products reduce to
	// convolving the per-stage report distributions. This is the default
	// and the fast path.
	EvaluatorConvolution Evaluator = iota + 1
	// EvaluatorMatrix materializes the Head/Body/Tail transition matrices
	// and computes Result = u * TH * TB^(M-ms-1) * prod_j TTj literally as
	// in the paper. Used for cross-checking and for the ablation benchmark.
	EvaluatorMatrix
)

// MSOptions configures the M-S-approach. The zero value plans gh and g for
// a 99% predicted accuracy, evaluates by convolution, and normalizes the
// result per Eq. (13).
type MSOptions struct {
	// Gh is the maximum number of sensors considered in the Head-stage
	// NEDR. Zero means plan automatically from TargetAccuracy.
	Gh int
	// G is the maximum number of sensors considered in each Body/Tail-stage
	// NEDR. Zero means plan automatically from TargetAccuracy.
	G int
	// TargetAccuracy is the desired etaMS (Eq. 14) used when Gh or G is
	// zero. Zero means 0.99, the value used throughout the paper.
	TargetAccuracy float64
	// Evaluator selects the Eq. (12) evaluation strategy; zero means
	// EvaluatorConvolution.
	Evaluator Evaluator
	// NoNormalize skips the Eq. (13) renormalization, reporting the raw
	// truncated tail probability instead. This reproduces Figure 9(b).
	NoNormalize bool
	// MergeAtK merges every state with K or more reports into a single
	// absorbing state, exactly as the paper describes under Figure 5
	// ("if we are only interested in the probability of having at least k
	// detection reports, we can merge the states from k to MZ"). The
	// result PMF then has K+1 entries with the last holding P[X >= K].
	// Only the detection probability is meaningful in this mode; moments
	// of the merged PMF are not.
	MergeAtK bool
}

// MSResult is the outcome of the M-S-approach analysis.
type MSResult struct {
	// Params echoes the analyzed scenario.
	Params Params
	// Gh and G are the truncation bounds actually used.
	Gh, G int
	// PMF is the raw (sub-stochastic) distribution of the total number of
	// detection reports generated in M sensing periods.
	PMF dist.PMF
	// Mass is the total probability mass of PMF — the paper's "sum" in
	// Eq. (13). 1 - Mass is the truncated probability.
	Mass float64
	// DetectionProb is PM[X >= K]: normalized per Eq. (13) unless
	// NoNormalize was set, in which case it equals RawTail.
	DetectionProb float64
	// RawTail is the un-normalized P[X >= K] (Figure 9(b)).
	RawTail float64
	// PredictedAccuracy is etaMS per Eq. (14) for the used Gh and G.
	PredictedAccuracy float64
}

// truncation validates p and resolves opt's truncation bounds: a
// non-positive Gh or G is planned for opt.TargetAccuracy (0.99 when zero),
// which must lie in (0, 1) whether or not it is used.
func truncation(p Params, opt MSOptions) (gh, g int, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, err
	}
	target, err := targetAccuracy(opt.TargetAccuracy)
	if err != nil {
		return 0, 0, err
	}
	gh, g = opt.Gh, opt.G
	if gh <= 0 {
		if gh, err = RequiredHeadG(p, target); err != nil {
			return 0, 0, err
		}
	}
	if g <= 0 {
		if g, err = RequiredBodyG(p, target); err != nil {
			return 0, 0, err
		}
	}
	return gh, g, nil
}

// targetAccuracy resolves an options' target accuracy: zero means 0.99,
// and the result must lie in (0, 1) whether or not a bound is planned from
// it.
func targetAccuracy(target float64) (float64, error) {
	if target == 0 {
		target = 0.99
	}
	if !(target > 0 && target < 1) { // NaN fails too
		return 0, fmt.Errorf("target accuracy %v must be in (0, 1): %w", target, ErrParams)
	}
	return target, nil
}

// regionBuilder builds one region's stage distribution with at most g
// sensors inside it: regionSet.reportPMF for the report count, or
// reportJoint for the Section-4 (reports, distinct nodes) pair.
type regionBuilder[T any] func(r regionSet, g int) (T, error)

// stages holds one scenario's per-stage distributions: the Head NEDR's,
// the Body NEDR's (shared by all M-ms-1 body steps) and the ms Tail NEDRs'
// (tails[j-1] is period Tj's).
type stages[T any] struct {
	head, body T
	tails      []T
}

// computeStages builds every stage of p with the head bound gh and the
// body/tail bound g.
func computeStages[T any](p Params, gh, g int, build regionBuilder[T]) (*stages[T], error) {
	gm, err := p.Geometry()
	if err != nil {
		return nil, err
	}
	areas := cachedAreas(gm)
	st := &stages[T]{tails: make([]T, gm.Ms)}
	if st.head, err = build(p.region(areas.head), gh); err != nil {
		return nil, fmt.Errorf("head stage: %w", err)
	}
	if st.body, err = build(p.region(areas.body), g); err != nil {
		return nil, fmt.Errorf("body stage: %w", err)
	}
	for j := 1; j <= gm.Ms; j++ {
		if st.tails[j-1], err = build(p.region(areas.tails[j-1]), g); err != nil {
			return nil, fmt.Errorf("tail stage T%d: %w", j, err)
		}
	}
	return st, nil
}

// chain is the Eq. (12) stage sequence of one window: head, then body
// bodySteps times, then each of tails. For M > ms that is the paper's
// Head, M-ms-1 Body and ms Tail stages. For M <= ms no Body stage fits:
// the head is window-truncated and the last M-1 tails follow it (see
// smallwindow.go).
type chain[T any] struct {
	head, body T
	bodySteps  int
	tails      []T
}

// full returns p's memoized stage set. ys, the joint's reporter-axis size
// (0 for the report PMF), completes the key; M is not part of it.
func (cm chainMemos[T]) full(p Params, gh, g, ys int, build regionBuilder[T]) (*stages[T], error) {
	key := stageKey{rs: p.Rs, vt: p.Vt(), fieldSide: p.FieldSide, pd: p.Pd, n: p.N, gh: gh, g: g, ys: ys}
	return cm.stages.get(key, func() (*stages[T], error) { return computeStages(p, gh, g, build) })
}

// buildChain lays out p's chain from the stages build makes, memoized in
// memos under keys completed by ys.
func buildChain[T any](p Params, gh, g, ys int, memos chainMemos[T], build regionBuilder[T]) (chain[T], error) {
	ms := p.Ms()
	if p.M > ms {
		st, err := memos.full(p, gh, g, ys, build)
		if err != nil {
			return chain[T]{}, err
		}
		return chain[T]{head: st.head, body: st.body, bodySteps: p.M - ms - 1, tails: st.tails}, nil
	}
	key := stageKey{rs: p.Rs, vt: p.Vt(), fieldSide: p.FieldSide, pd: p.Pd, n: p.N, gh: gh, m: p.M, ys: ys}
	head, err := memos.heads.get(key, func() (T, error) { return truncatedHead(p, gh, build) })
	if err != nil {
		return chain[T]{}, err
	}
	c := chain[T]{head: head}
	if p.M > 1 {
		st, err := memos.full(p, gh, g, ys, build)
		if err != nil {
			return chain[T]{}, err
		}
		c.tails = st.tails[ms-p.M+1:]
	}
	return c, nil
}

// MSApproach analyzes group-based detection with the Markov-chain-based
// Spatial approach (Section 3.4). It covers every window length M >= 1: the
// paper's general case M > ms chains Head, Body and Tail stages, while for
// M <= ms the window-truncated Head plus the last M-1 Tail stages are
// chained directly (see smallwindow.go); at M = 1 this degenerates to the
// Section 3.1 binomial preliminary.
func MSApproach(p Params, opt MSOptions) (*MSResult, error) {
	gh, g, err := truncation(p, opt)
	if err != nil {
		return nil, err
	}
	c, err := buildChain(p, gh, g, 0, pmfMemos, regionSet.reportPMF)
	if err != nil {
		return nil, err
	}

	var total dist.PMF
	switch opt.Evaluator {
	case 0, EvaluatorConvolution:
		total = dist.Convolve(c.head, dist.ConvolvePower(c.body, c.bodySteps))
		for _, t := range c.tails {
			total = dist.Convolve(total, t)
		}
		if opt.MergeAtK {
			total = total.Truncate(p.K+1, true)
		}
	case EvaluatorMatrix:
		total, err = evaluateMatrix(c.head, c.body, c.tails, c.bodySteps, mergeSize(opt, p))
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown evaluator %d: %w", opt.Evaluator, ErrParams)
	}

	res := &MSResult{
		Params:            p,
		Gh:                gh,
		G:                 g,
		PMF:               total,
		Mass:              total.Total(),
		RawTail:           total.Tail(p.K),
		PredictedAccuracy: EtaMS(p, gh, g),
	}
	if opt.NoNormalize {
		res.DetectionProb = res.RawTail
	} else if res.Mass > 0 {
		// Eq. (13): divide the tail by the retained mass.
		res.DetectionProb = numeric.Clamp01(res.RawTail / res.Mass)
	}
	return res, nil
}

// mergeSize returns the Markov state count: 0 means exact sizing; a
// positive value caps the space at K+1 merged states (Figure 5's merged
// "k or more" state).
func mergeSize(opt MSOptions, p Params) int {
	if opt.MergeAtK {
		return p.K + 1
	}
	return 0
}

// evaluateMatrix runs Eq. (12) with explicit transition matrices:
// Result = u * TH * TB^(bodySteps) * TT1 * ... * TTms. capSize > 0 merges
// every state past the cap into the final saturating state.
func evaluateMatrix(ph, pb dist.PMF, pt []dist.PMF, bodySteps, capSize int) (dist.PMF, error) {
	// Exact state-space bound: no saturation can occur, so the matrix and
	// convolution paths are comparable to machine precision.
	size := len(ph) + bodySteps*(len(pb)-1)
	for _, t := range pt {
		size += len(t) - 1
	}
	if capSize > 0 && capSize < size {
		size = capSize
	}
	u := make([]float64, size) // Eq. (11): all mass at zero reports.
	u[0] = 1

	head, err := markov.ShiftKernel(ph, size, true)
	if err != nil {
		return nil, fmt.Errorf("head kernel: %w", err)
	}
	v, err := head.Step(u)
	if err != nil {
		return nil, err
	}
	if bodySteps > 0 {
		body, err := markov.ShiftKernel(pb, size, true)
		if err != nil {
			return nil, fmt.Errorf("body kernel: %w", err)
		}
		v, err = body.Evolve(v, bodySteps)
		if err != nil {
			return nil, err
		}
	}
	for j, t := range pt {
		tail, err := markov.ShiftKernel(t, size, true)
		if err != nil {
			return nil, fmt.Errorf("tail kernel T%d: %w", j+1, err)
		}
		v, err = tail.Step(v)
		if err != nil {
			return nil, err
		}
	}
	return dist.PMF(v), nil
}
