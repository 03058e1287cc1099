package sim

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/netsim"
)

// relayState is the relay stage's state on one worker: the base station
// choice and a lazy routing table toward it, re-aimed in place at every
// trial's deployment and Reset — not rebuilt — only when the alive mask
// changes. Routing over the alive mask routes exactly as a network of the
// alive sensors alone would (see netsim.Routing), without building a network
// per trial or per mask epoch.
type relayState struct {
	routing netsim.Routing
	base    int // base station id

	stale bool   // no Reset since the last rebuild
	mask  []bool // the mask of the last Reset, empty for nil (a deployment is never empty)
	keep  []bool // mask with the base forced alive
}

// rebuild aims the relay at a new deployment, with the base station at the
// sensor nearest the field center.
func (r *relayState) rebuild(sensors []geom.Point, commRange float64, bounds geom.Rect) error {
	center := geom.Point{
		X: (bounds.MinX + bounds.MaxX) / 2,
		Y: (bounds.MinY + bounds.MaxY) / 2,
	}
	base := geom.Nearest(sensors, center)
	if err := r.routing.Rebuild(sensors, commRange, bounds, base); err != nil {
		return err
	}
	r.base = base
	r.stale = true
	return nil
}

// send forwards a report from sensor id to the base over the network
// induced by the alive mask (nil means everyone is alive). The base is
// protected: it relays even when the mask marks it dead.
func (r *relayState) send(id int, mask []bool, loss netsim.LossModel, rng *rand.Rand) (netsim.Delivery, error) {
	if err := r.refresh(mask); err != nil {
		return netsim.Delivery{}, err
	}
	if mask != nil && !mask[id] && id != r.base {
		// Defensive: dead sensors are filtered before sensing, so a report
		// from one is a bug in the caller.
		return netsim.Delivery{}, fmt.Errorf("report from dead sensor %d: %w", id, ErrConfig)
	}
	return r.routing.Send(id, loss, rng)
}

// refresh re-aims the routing table when the mask changed.
func (r *relayState) refresh(mask []bool) error {
	if !r.stale && slices.Equal(r.mask, mask) {
		return nil
	}
	r.stale = false
	r.mask = append(r.mask[:0], mask...)
	if mask == nil {
		return r.routing.Reset(nil)
	}
	r.keep = append(r.keep[:0], mask...)
	r.keep[r.base] = true // the base station survives
	return r.routing.Reset(r.keep)
}
