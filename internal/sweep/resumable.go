package sweep

import (
	"context"
	"errors"
	"fmt"
	"strconv"
)

// PointKey names point i of the sweep called name inside checkpoints,
// manifests, and error messages: "<name>/<i>".
func PointKey(name string, i int) string {
	return name + "/" + strconv.Itoa(i)
}

// Resumable is the checkpointed sweep every campaign runner goes
// through. Points already in ck's store (under PointKey(name, i)) are
// restored without executing; the rest run under opt like Run, and each
// completed point is persisted before the sweep moves on. A nil ck or
// store runs every point. Results come back in input order whatever the
// restore or execution order, and done[i] reports whether point i has a
// result: with opt.Degrade a failed point leaves it false instead of
// failing the sweep. opt.OnPointError sees indexes into items, and
// ck.OnPointError the same failures by point key.
//
// Each point derives its rng stream from its own parameters, so a resumed
// sweep is bit-identical to an uninterrupted one. A point failure is
// returned named by its key ("<name>/<i>: <cause>").
func Resumable[T, R any](ctx context.Context, opt Options, ck *Checkpoint, name string, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, []bool, error) {
	store := ck.store()
	results := make([]R, len(items))
	done := make([]bool, len(items))
	var pending []int
	for i := range items {
		if store != nil {
			ok, err := store.Get(PointKey(name, i), &results[i])
			if err != nil {
				return results, done, err
			}
			if ok {
				done[i] = true
				continue
			}
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return results, done, ctx.Err()
	}
	onErr := opt.OnPointError
	opt.OnPointError = func(j, attempt int, err error) {
		if onErr != nil {
			onErr(pending[j], attempt, err)
		}
		if ck != nil && ck.OnPointError != nil {
			ck.OnPointError(PointKey(name, pending[j]), attempt, err)
		}
	}
	rep, err := Run(ctx, opt, pending, func(ctx context.Context, _ int, i int) (R, error) {
		r, err := fn(ctx, i, items[i])
		if err == nil && store != nil {
			if perr := store.Put(PointKey(name, i), r); perr != nil {
				return r, fmt.Errorf("persist: %w", perr)
			}
		}
		return r, err
	})
	for j, i := range pending {
		if rep.Done[j] {
			results[i] = rep.Results[j]
			done[i] = true
		}
	}
	var pe *PointError
	if errors.As(err, &pe) {
		// Name the point by its index in items, not in the pending subset.
		return results, done, fmt.Errorf("%s: %w", PointKey(name, pending[pe.Index]), pe.Err)
	}
	return results, done, err
}
