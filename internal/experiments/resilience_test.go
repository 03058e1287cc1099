package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/groupdetect/gbd/internal/checkpoint"
	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/sweep"
)

// TestSweepPointsCheckpointResume: interrupt a sweep by failing one point,
// resume from the checkpoint file, and verify (a) completed points are not
// re-executed and (b) the final results equal an uninterrupted run's.
func TestSweepPointsCheckpointResume(t *testing.T) {
	items := []int{10, 20, 30, 40, 50}
	square := func(_ context.Context, _ int, n int) (int, error) { return n * n, nil }

	clean, err := sweepPoints(Options{Sweep: sweep.Options{Workers: 1}}, "sq", items, square)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	fp, err := checkpoint.Fingerprint("test", items, 1)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Create(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	executed := map[int]int{}
	record := func(i int) {
		mu.Lock()
		executed[i]++
		mu.Unlock()
	}
	boom := errors.New("boom")
	_, err = sweepPoints(Options{Sweep: sweep.Options{Workers: 1}, Checkpoint: &sweep.Checkpoint{Store: store}}, "sq", items,
		func(ctx context.Context, i int, n int) (int, error) {
			record(i)
			if i == 3 {
				return 0, boom
			}
			return square(ctx, i, n)
		})
	if !errors.Is(err, boom) {
		t.Fatalf("interrupted run err = %v, want boom", err)
	}

	resumed, err := checkpoint.Resume(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Len() != 3 {
		t.Fatalf("checkpoint holds %d points, want 3 (indices 0-2)", resumed.Len())
	}
	got, err := sweepPoints(Options{Sweep: sweep.Options{Workers: 1}, Checkpoint: &sweep.Checkpoint{Store: resumed}}, "sq", items,
		func(ctx context.Context, i int, n int) (int, error) {
			record(i)
			return square(ctx, i, n)
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, clean) {
		t.Errorf("resumed results %v != clean %v", got, clean)
	}
	for i := 0; i < 3; i++ {
		if executed[i] != 1 {
			t.Errorf("point %d executed %d times, want 1 (restored on resume)", i, executed[i])
		}
	}
	// Point 3 failed then re-ran on resume; point 4 was skipped after the
	// failure (sequential-equivalent stop) so resume is its only execution.
	if executed[3] != 2 || executed[4] != 1 {
		t.Errorf("incomplete points executed %d/%d times, want 2/1", executed[3], executed[4])
	}
}

// TestSweepPointsFailureNamesPoint: the surfaced error carries the
// "<exp>/<index>" point key binaries stamp into manifests.
func TestSweepPointsFailureNamesPoint(t *testing.T) {
	var failedPoint string
	opt := Options{
		Sweep:      sweep.Options{Workers: 1},
		Checkpoint: &sweep.Checkpoint{OnPointError: func(point string, attempt int, err error) { failedPoint = point }},
	}
	boom := errors.New("boom")
	_, err := sweepPoints(opt, "deg", []int{1, 2, 3}, func(_ context.Context, i int, _ int) (int, error) {
		if i == 1 {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if failedPoint != "deg/1" {
		t.Errorf("OnPointError saw %q, want \"deg/1\"", failedPoint)
	}
	if want := "experiments: deg/1:"; err == nil || len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Errorf("error %q does not name the point", err)
	}
}

// TestRunOneRestoresWholeTable: a finished table in the checkpoint short-
// circuits the runner entirely (observable via the experiments.runs
// counter) and renders byte-identically.
func TestRunOneRestoresWholeTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	store, err := checkpoint.Create(path, "fp-tables")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Quick: true, Seed: 1, Checkpoint: &sweep.Checkpoint{Store: store}}
	first, err := RunOne("sensitivity", opt)
	if err != nil {
		t.Fatal(err)
	}
	runsBefore := obs.Default.Snapshot().Counters["experiments.runs"]
	second, err := RunOne("sensitivity", opt)
	if err != nil {
		t.Fatal(err)
	}
	if runsAfter := obs.Default.Snapshot().Counters["experiments.runs"]; runsAfter != runsBefore {
		t.Errorf("restored table still executed the runner (runs %d -> %d)", runsBefore, runsAfter)
	}
	if first.Render() != second.Render() {
		t.Errorf("restored table renders differently:\n%s\nvs\n%s", second.Render(), first.Render())
	}
}

func TestRunOneUnknownID(t *testing.T) {
	if _, err := RunOne("nope", Options{Quick: true}); !errors.Is(err, ErrExperiment) {
		t.Fatalf("err = %v, want ErrExperiment", err)
	}
}

// TestRunnersCoverEveryExperiment guards the registry against drifting
// from the documented experiment set.
func TestRunnersCoverEveryExperiment(t *testing.T) {
	want := []string{
		"fig8", "fig9a", "fig9b", "fig9c", "timing", "extension", "kmin",
		"boundary", "comm", "latency", "tapproach", "coverage", "endtoend",
		"sensitivity", "degradation", "lossdeg", "inference", "placement",
	}
	rs := Runners()
	if len(rs) != len(want) {
		t.Fatalf("%d runners, want %d", len(rs), len(want))
	}
	for i, r := range rs {
		if r.ID != want[i] {
			t.Errorf("runner %d = %q, want %q", i, r.ID, want[i])
		}
		if r.Run == nil {
			t.Errorf("runner %q has nil Run", r.ID)
		}
	}
}

// TestOptionsMarshalForManifest: runtime-only fields must not break the
// JSON manifest encoding of Options.
func TestOptionsMarshalForManifest(t *testing.T) {
	store, err := checkpoint.Create(filepath.Join(t.TempDir(), "c"), "fp")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Trials:     100,
		Ctx:        context.Background(),
		Sweep:      sweep.Options{OnPointError: func(int, int, error) {}},
		Checkpoint: &sweep.Checkpoint{Store: store, OnPointError: func(string, int, error) {}},
	}
	blob, err := json.Marshal(opt)
	if err != nil {
		t.Fatalf("Options with runtime fields must marshal: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, hidden := range []string{"Ctx", "Checkpoint"} {
		if _, ok := decoded[hidden]; ok {
			t.Errorf("runtime field %s leaked into the manifest encoding", hidden)
		}
	}
	if _, ok := decoded["Sweep"].(map[string]any)["OnPointError"]; ok {
		t.Error("runtime field Sweep.OnPointError leaked into the manifest encoding")
	}
}

// TestRunnerCancellation: a cancelled context aborts any runner with
// ctx.Err() instead of a fabricated table.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Quick: true, Seed: 1, Ctx: ctx}
	for _, r := range Runners() {
		if _, err := r.Run(opt); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", r.ID, err)
		}
	}
}

// TestFig9aResumeIsByteIdentical: restoring every sweep point from a
// checkpoint reproduces the uninterrupted table byte for byte without
// re-running any simulation.
func TestFig9aResumeIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick fig9a campaign twice")
	}
	opt := Options{Quick: true, Trials: 200, Seed: 5, Sweep: sweep.Options{Workers: 2}}
	clean, err := Fig9a(opt)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	store, err := checkpoint.Create(path, "fp-fig9a")
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = &sweep.Checkpoint{Store: store}
	if _, err := Fig9a(opt); err != nil {
		t.Fatal(err)
	}

	resumed, err := checkpoint.Resume(path, "fp-fig9a")
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = &sweep.Checkpoint{Store: resumed}
	itemsBefore := obs.Default.Snapshot().Counters["sweep.items"]
	got, err := Fig9a(opt)
	if err != nil {
		t.Fatal(err)
	}
	// "table/fig9a" was never stored (RunOne wasn't used), so the sweep ran
	// again — but every point came from the checkpoint: zero new attempts.
	if itemsAfter := obs.Default.Snapshot().Counters["sweep.items"]; itemsAfter != itemsBefore {
		t.Errorf("resume re-executed sweep points: sweep.items %d -> %d", itemsBefore, itemsAfter)
	}
	if got.Render() != clean.Render() {
		t.Errorf("resumed output not byte-identical:\n--- clean ---\n%s--- resumed ---\n%s", clean.Render(), got.Render())
	}
}

// TestAllStopsAtFirstFailureWithPartialTables exercises the degradation
// contract of All: tables completed before the failure are returned.
func TestAllStopsAtFirstFailureWithPartialTables(t *testing.T) {
	// Cancel after the first runner finishes via a checkpoint-free trick:
	// negative trials fail validation inside every runner, so All must
	// return immediately with zero tables and the validation error.
	tables, err := All(Options{Trials: -1})
	if err == nil {
		t.Fatal("expected validation error")
	}
	if len(tables) != 0 {
		t.Fatalf("got %d tables before the failure, want 0", len(tables))
	}
	if !errors.Is(err, ErrExperiment) {
		t.Errorf("err = %v, want ErrExperiment", err)
	}
}
