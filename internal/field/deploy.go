package field

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/groupdetect/gbd/internal/geom"
)

// ErrDeploy reports invalid deployment arguments.
var ErrDeploy = errors.New("field: invalid deployment")

// Uniform places n sensors independently and uniformly at random in bounds —
// the deployment model the paper assumes (Section 2).
func Uniform(n int, bounds geom.Rect, rng *rand.Rand) ([]geom.Point, error) {
	return UniformInto(nil, n, bounds, rng)
}

// UniformInto is Uniform drawing into dst's backing array (grown as
// needed), so a simulation loop can redeploy without allocating. The draws
// are identical to Uniform's.
func UniformInto(dst []geom.Point, n int, bounds geom.Rect, rng *rand.Rand) ([]geom.Point, error) {
	if n < 0 {
		return nil, fmt.Errorf("n = %d: %w", n, ErrDeploy)
	}
	if bounds.Area() <= 0 {
		return nil, fmt.Errorf("empty bounds %+v: %w", bounds, ErrDeploy)
	}
	if cap(dst) < n {
		dst = make([]geom.Point, n)
	} else {
		dst = dst[:n]
	}
	w := bounds.MaxX - bounds.MinX
	h := bounds.MaxY - bounds.MinY
	for i := range dst {
		dst[i] = geom.Point{
			X: bounds.MinX + rng.Float64()*w,
			Y: bounds.MinY + rng.Float64()*h,
		}
	}
	return dst, nil
}
