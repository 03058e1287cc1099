package sweep

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"github.com/groupdetect/gbd/internal/checkpoint"
)

// TestResumable: a Degrade sweep over a checkpoint leaves a failed
// point's done flag false, persists the others, and a rerun restores
// them without executing, reporting failures by point key and item index.
func TestResumable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	store, err := checkpoint.Create(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	items := []int{1, 2, 3, 4}
	boom := errors.New("boom")
	var failedIndex []int
	opt := Options{Workers: 2, Degrade: true, OnPointError: func(i, _ int, _ error) { failedIndex = append(failedIndex, i) }}
	square := func(_ context.Context, i, v int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return v * v, nil
	}
	got, done, err := Resumable(context.Background(), opt, &Checkpoint{Store: store}, "sq", items, square)
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true, false, true}; done[0] != want[0] || done[1] != want[1] || done[2] != want[2] || done[3] != want[3] {
		t.Errorf("done = %v, want %v", done, want)
	}
	if got[3] != 16 || store.Len() != 3 || len(failedIndex) != 1 || failedIndex[0] != 2 {
		t.Errorf("results %v, %d stored, failures at %v", got, store.Len(), failedIndex)
	}

	// Rerun without Degrade: only point 2 executes, and its failure is
	// named by its key even though it is the first pending point.
	ran := 0
	opt = Options{Workers: 1}
	_, done, err = Resumable(context.Background(), opt, &Checkpoint{Store: store}, "sq", items, func(ctx context.Context, i, v int) (int, error) {
		ran++
		return square(ctx, i, v)
	})
	if !errors.Is(err, boom) || err.Error() != "sq/2: boom" {
		t.Errorf("err = %v, want sq/2: boom", err)
	}
	if ran != 1 || !done[0] || !done[3] || done[2] {
		t.Errorf("ran %d points, done %v", ran, done)
	}

	// Without a store every point runs.
	got, _, err = Resumable(context.Background(), Options{Workers: 1}, nil, "sq", []int{5}, square)
	if err != nil || got[0] != 25 {
		t.Errorf("no store: %v, %v", got, err)
	}
}
