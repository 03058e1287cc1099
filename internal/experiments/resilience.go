package experiments

import (
	"context"
	"fmt"

	"github.com/groupdetect/gbd/internal/sweep"
)

// sweepPoints runs an experiment's sweep through sweep.Resumable under
// the Options fault policy (context, retries, backoff, per-point
// deadline) and checkpoint. Points are keyed "<exp>/<i>".
func sweepPoints[T, R any](opt Options, exp string, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	sopt := sweep.Options{
		Workers:      opt.SweepWorkers,
		Retries:      opt.Retries,
		Backoff:      opt.RetryBackoff,
		PointTimeout: opt.PointTimeout,
	}
	if opt.OnPointError != nil {
		sopt.OnPointError = func(i, attempt int, err error) {
			opt.OnPointError(sweep.PointKey(exp, i), attempt, err)
		}
	}
	results, _, err := sweep.Resumable(opt.ctx(), sopt, opt.Checkpoint, exp, items, fn)
	if err != nil && opt.ctx().Err() == nil {
		err = fmt.Errorf("experiments: %w", err)
	}
	return results, err
}
