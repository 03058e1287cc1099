// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4 and Figure 8) plus the ablations listed in
// DESIGN.md. Each runner returns a Table that renders as aligned text or
// CSV; cmd/gbd-experiments drives them and EXPERIMENTS.md records the
// outputs next to the paper's reported shapes.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/sweep"
)

// ErrExperiment reports invalid experiment options.
var ErrExperiment = errors.New("experiments: invalid options")

// Options tunes the experiment runners.
type Options struct {
	// Trials is the Monte Carlo trial count per point; 0 means the paper's
	// 10000.
	Trials int
	// Seed makes simulation-backed experiments reproducible.
	Seed int64
	// Quick shrinks sweeps and trial counts for tests and smoke runs.
	Quick bool
	// RNG selects the trial RNG scheme for simulation-backed experiments
	// (zero value: the legacy per-trial reseed scheme). Changing it
	// changes simulation columns, so it participates in checkpoint
	// fingerprints.
	RNG field.RNGScheme
	// Sweep is the fault policy of every experiment sweep: concurrent
	// points (0 means GOMAXPROCS), retries, backoff and per-attempt
	// deadline. It shapes execution, not results — each point derives its
	// rng stream from its own parameters — so it is recorded in manifests
	// but excluded from checkpoint fingerprints. Degrade is ignored: a
	// table needs every point.
	Sweep sweep.Options

	// Ctx, when non-nil, lets callers cancel a running experiment: sweeps
	// stop dispatching points and trial loops unwind within a bounded
	// number of trials. Nil means Background. Excluded from manifests (it
	// is runtime state, not a parameter).
	Ctx context.Context `json:"-"`
	// Checkpoint, when non-nil, records every completed sweep point (and
	// finished table) so an interrupted campaign resumes without repeating
	// work, and names each failed point attempt to its observer. Restored
	// points are not re-executed, which is observable in the sweep.items
	// metric. Excluded from manifests.
	Checkpoint *sweep.Checkpoint `json:"-"`
}

// ctx returns the experiment context, Background when unset.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) withDefaults() (Options, error) {
	experimentRuns.Inc()
	if o.Trials < 0 {
		return o, fmt.Errorf("trials = %d: %w", o.Trials, ErrExperiment)
	}
	if err := o.ctx().Err(); err != nil {
		return o, err
	}
	if o.Trials == 0 {
		o.Trials = 10000
		if o.Quick {
			o.Trials = 1500
		}
	}
	return o, nil
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "fig9a").
	ID string
	// Title describes the artifact being reproduced.
	Title string
	// Columns and Rows hold the tabular data.
	Columns []string
	Rows    [][]string
	// Notes carries summary lines (max errors, shape checks).
	Notes []string
}

// AddRow appends a formatted row; values are rendered with %v unless they
// are float64, which use %.4f.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV returns the table as comma-separated values (no notes).
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Columns, ","))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}
