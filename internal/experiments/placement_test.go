package experiments

import (
	"path/filepath"
	"testing"

	"github.com/groupdetect/gbd/internal/checkpoint"
	"github.com/groupdetect/gbd/internal/sweep"
)

func TestPlacementTable(t *testing.T) {
	opt := quickOpt()
	opt.Trials = 150
	tbl, err := Placement(opt)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "placement" || len(tbl.Rows) != 2 {
		t.Fatalf("table %q has %d rows, want placement with 2 quick budgets", tbl.ID, len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		placed := parseFloat(t, row[1])
		uniform := parseFloat(t, row[2])
		if placed < uniform {
			t.Errorf("n=%s: placed %v < uniform %v", row[0], placed, uniform)
		}
		if kmin := parseFloat(t, row[8]); kmin < 1 {
			t.Errorf("n=%s: kmin_exact = %v", row[0], kmin)
		}
	}
}

func TestPlacementCheckpointResume(t *testing.T) {
	opt := quickOpt()
	opt.Trials = 150
	clean, err := Placement(opt)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "placement.ckpt")
	fp, err := checkpoint.Fingerprint("placement-test", opt.Trials, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Create(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = &sweep.Checkpoint{Store: store}
	if _, err := Placement(opt); err != nil {
		t.Fatal(err)
	}

	// A resumed run restores every point (and the finished table) from the
	// checkpoint and must render identical rows.
	resumed, err := checkpoint.Resume(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = &sweep.Checkpoint{Store: resumed}
	tbl, err := RunOne("placement", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(clean.Rows) {
		t.Fatalf("resumed table has %d rows, clean %d", len(tbl.Rows), len(clean.Rows))
	}
	for i := range tbl.Rows {
		for j := range tbl.Rows[i] {
			if tbl.Rows[i][j] != clean.Rows[i][j] {
				t.Errorf("row %d col %d: resumed %q != clean %q", i, j, tbl.Rows[i][j], clean.Rows[i][j])
			}
		}
	}
}
