package experiments

import (
	"context"
	"fmt"

	"github.com/groupdetect/gbd/internal/sweep"
)

// sweepPoints runs an experiment's sweep through sweep.Resumable under
// the Options context, fault policy and checkpoint. Points are keyed
// "<exp>/<i>".
func sweepPoints[T, R any](opt Options, exp string, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	sopt := opt.Sweep
	sopt.Degrade = false
	results, _, err := sweep.Resumable(opt.ctx(), sopt, opt.Checkpoint, exp, items, fn)
	if err != nil && opt.ctx().Err() == nil {
		err = fmt.Errorf("experiments: %w", err)
	}
	return results, err
}
