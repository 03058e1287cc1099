package experiments

import (
	"fmt"

	"github.com/groupdetect/gbd/internal/checkpoint"
)

// Runner pairs an experiment id (the -exp flag value, which may differ
// from the rendered Table.ID) with its function.
type Runner struct {
	ID  string
	Run func(Options) (*Table, error)
}

// Runners returns every experiment in DESIGN.md order. The slice is fresh
// on every call; callers may reorder or filter it.
func Runners() []Runner {
	return []Runner{
		{"fig8", Fig8},
		{"fig9a", Fig9a},
		{"fig9b", Fig9b},
		{"fig9c", Fig9c},
		{"timing", Timing},
		{"extension", ExtensionH},
		{"kmin", KMinTable},
		{"boundary", Boundary},
		{"comm", CommCheck},
		{"latency", Latency},
		{"tapproach", TApproachExplosion},
		{"coverage", Coverage},
		{"endtoend", EndToEnd},
		{"sensitivity", Sensitivities},
		{"degradation", Degradation},
		{"lossdeg", LossDegradation},
		{"inference", InferenceAccuracy},
		{"placement", Placement},
	}
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) {
	for _, r := range Runners() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// RunOne executes one experiment under the resilience options. A finished
// table already present in the checkpoint (key "table/<id>") is restored
// without executing the runner at all; otherwise the runner executes —
// itself restoring any completed sweep points — and the finished table is
// persisted for the next resume.
func RunOne(id string, opt Options) (*Table, error) {
	r, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q: %w", id, ErrExperiment)
	}
	key := "table/" + id
	var store *checkpoint.Store
	if opt.Checkpoint != nil {
		store = opt.Checkpoint.Store
	}
	if store != nil {
		var tbl Table
		ok, err := store.Get(key, &tbl)
		if err != nil {
			return nil, err
		}
		if ok {
			return &tbl, nil
		}
	}
	tbl, err := r.Run(opt)
	if err != nil {
		return nil, err
	}
	if store != nil {
		if err := store.Put(key, tbl); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// All runs every experiment in DESIGN.md order, stopping at the first
// failure with the tables completed so far.
func All(opt Options) ([]*Table, error) {
	rs := Runners()
	tables := make([]*Table, 0, len(rs))
	for _, r := range rs {
		tbl, err := RunOne(r.ID, opt)
		if err != nil {
			return tables, err
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}
