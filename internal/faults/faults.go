// Package faults injects node failures into a deployment. The paper assumes
// every deployed sensor stays alive for the whole mission; real sparse
// deployments lose nodes to battery exhaustion, hardware death and localized
// events (jamming, flooding). Each model here turns a deployment into a
// deterministic, seedable per-period alive mask that the simulator and the
// network layer consume: a dead sensor neither senses nor relays.
//
// All models are permanent-death models: once a node dies it stays dead, so
// masks are monotone non-increasing over time.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/groupdetect/gbd/internal/geom"
)

// ErrModel reports an invalid failure model.
var ErrModel = errors.New("faults: invalid failure model")

// Model produces alive masks for a deployment.
type Model interface {
	// Masks returns alive[t][i], whether node i is alive during sensing
	// period t+1, for t = 0..periods-1. bounds is the deployment field
	// (used by spatially correlated models); rng supplies the randomness,
	// so a model is deterministic per (deployment, rng state).
	Masks(nodes []geom.Point, bounds geom.Rect, periods int, rng *rand.Rand) ([][]bool, error)
}

func checkPeriods(periods int) error {
	if periods < 1 {
		return fmt.Errorf("periods = %d must be >= 1: %w", periods, ErrModel)
	}
	return nil
}

// rows returns periods masks of nodes entries each, sliced from one backing
// array. Every row is capped at its own end, so no row aliases another:
// Compose and Blob write into rows one by one.
func rows(nodes, periods int) [][]bool {
	backing := make([]bool, nodes*periods)
	masks := make([][]bool, periods)
	for t := range masks {
		masks[t] = backing[t*nodes : (t+1)*nodes : (t+1)*nodes]
	}
	return masks
}

func allAlive(nodes, periods int) [][]bool {
	masks := rows(nodes, periods)
	for _, m := range masks {
		for i := range m {
			m[i] = true
		}
	}
	return masks
}

// None is the paper's assumption: every node alive for the whole mission.
type None struct{}

// Masks implements Model.
func (None) Masks(nodes []geom.Point, _ geom.Rect, periods int, _ *rand.Rand) ([][]bool, error) {
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	return allAlive(len(nodes), periods), nil
}

// Bernoulli kills each node independently with probability DeadFrac before
// the mission starts — the classic "a fraction f of the deployment never
// reports" model. Its analytical mirror is the effective density
// n' = n*(1-f) (equivalently, thinning Pd by 1-f).
type Bernoulli struct {
	// DeadFrac is the independent per-node death probability in [0, 1].
	DeadFrac float64
}

// Masks implements Model.
func (b Bernoulli) Masks(nodes []geom.Point, _ geom.Rect, periods int, rng *rand.Rand) ([][]bool, error) {
	if b.DeadFrac < 0 || b.DeadFrac > 1 || math.IsNaN(b.DeadFrac) {
		return nil, fmt.Errorf("dead fraction %v must be in [0, 1]: %w", b.DeadFrac, ErrModel)
	}
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	masks := rows(len(nodes), periods)
	alive := masks[0]
	for i := range alive {
		alive[i] = rng.Float64() >= b.DeadFrac
	}
	for _, m := range masks[1:] {
		copy(m, alive)
	}
	return masks, nil
}

// Lifetime is a per-period battery/hardware hazard: each node alive at the
// start of a period dies during it with probability Hazard, independently.
// A node alive in period t survives to period t+k with probability
// (1-Hazard)^k, the geometric lifetime model.
type Lifetime struct {
	// Hazard is the per-period death probability in [0, 1].
	Hazard float64
	// InitialDeadFrac optionally kills a fraction before the mission, so a
	// campaign can start from an already-degraded deployment.
	InitialDeadFrac float64
}

// Masks implements Model.
func (l Lifetime) Masks(nodes []geom.Point, _ geom.Rect, periods int, rng *rand.Rand) ([][]bool, error) {
	if l.Hazard < 0 || l.Hazard > 1 || math.IsNaN(l.Hazard) {
		return nil, fmt.Errorf("hazard %v must be in [0, 1]: %w", l.Hazard, ErrModel)
	}
	if l.InitialDeadFrac < 0 || l.InitialDeadFrac > 1 || math.IsNaN(l.InitialDeadFrac) {
		return nil, fmt.Errorf("initial dead fraction %v must be in [0, 1]: %w", l.InitialDeadFrac, ErrModel)
	}
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	masks := rows(len(nodes), periods)
	alive := masks[0] // the initial state, then period 1's after its hazard
	for i := range alive {
		alive[i] = rng.Float64() >= l.InitialDeadFrac
	}
	for t, m := range masks {
		if t > 0 {
			copy(m, masks[t-1])
		}
		for i := range m {
			if m[i] && rng.Float64() < l.Hazard {
				m[i] = false
			}
		}
	}
	return masks, nil
}

// Blob is a spatially correlated failure: at period At, every node within
// Radius of a disaster center is destroyed permanently (jamming, flooding,
// shelling of a region). The center is drawn uniformly from bounds unless
// Center is set.
type Blob struct {
	// Radius is the destruction radius in meters.
	Radius float64
	// At is the 1-based period the event strikes; 0 means period 1.
	At int
	// Center, when non-nil, fixes the event location instead of drawing it
	// uniformly from the field.
	Center *geom.Point
}

// Masks implements Model.
func (b Blob) Masks(nodes []geom.Point, bounds geom.Rect, periods int, rng *rand.Rand) ([][]bool, error) {
	if !(b.Radius > 0) || math.IsInf(b.Radius, 0) {
		return nil, fmt.Errorf("blob radius %v must be positive and finite: %w", b.Radius, ErrModel)
	}
	if b.At < 0 {
		return nil, fmt.Errorf("blob period %d must be >= 0: %w", b.At, ErrModel)
	}
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	at := b.At
	if at == 0 {
		at = 1
	}
	center := geom.Point{
		X: bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
		Y: bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
	}
	if b.Center != nil {
		center = *b.Center
	}
	masks := allAlive(len(nodes), periods)
	r2 := b.Radius * b.Radius
	for t := at - 1; t < periods; t++ {
		for i, p := range nodes {
			if p.Dist2(center) <= r2 {
				masks[t][i] = false
			}
		}
	}
	return masks, nil
}

// Compose overlays several failure models: a node is alive only when alive
// under every component. Use it to combine, say, a battery hazard with a
// mid-mission jamming blob.
type Compose []Model

// Masks implements Model.
func (c Compose) Masks(nodes []geom.Point, bounds geom.Rect, periods int, rng *rand.Rand) ([][]bool, error) {
	if len(c) == 0 {
		return nil, fmt.Errorf("empty composition: %w", ErrModel)
	}
	out, err := c[0].Masks(nodes, bounds, periods, rng)
	if err != nil {
		return nil, err
	}
	for _, m := range c[1:] {
		next, err := m.Masks(nodes, bounds, periods, rng)
		if err != nil {
			return nil, err
		}
		for t := range out {
			for i := range out[t] {
				out[t][i] = out[t][i] && next[t][i]
			}
		}
	}
	return out, nil
}

// AliveFraction returns the fraction of true entries in a mask (1 for an
// empty mask, matching a zero-sensor deployment having nothing to lose).
func AliveFraction(mask []bool) float64 {
	if len(mask) == 0 {
		return 1
	}
	alive := 0
	for _, a := range mask {
		if a {
			alive++
		}
	}
	return float64(alive) / float64(len(mask))
}
