package fabric

import (
	"fmt"

	"github.com/groupdetect/gbd/internal/obs"
)

// Fleet-wide metric handles, resolved once at package init (DESIGN.md §9).
// Every retry, hedge, stall, and circuit transition lands in a counter, so
// the coordinator's run manifest is a complete failure-handling record of
// the campaign and gbd-server's /metrics shows the worker-side mirror
// (serve.sweep.streams / serve.sweep.heartbeats).
var (
	fabricShards       = obs.Default.Counter("fabric.shards")
	fabricRows         = obs.Default.Counter("fabric.rows")
	fabricRowsRestored = obs.Default.Counter("fabric.rows.restored")
	fabricHeartbeats   = obs.Default.Counter("fabric.heartbeats")
	fabricStalls       = obs.Default.Counter("fabric.stalls")
	fabricInflight     = obs.Default.Gauge("fabric.shards.inflight")
	fabricInflightMax  = obs.Default.Gauge("fabric.shards.inflight.max")
)

// eventCounters is the one table of what each event type counts: its
// fleet-wide counter, its per-worker counter fabric.worker.<index>.<worker>
// ("" for none), and its Report and WorkerReport fields (nil for none).
// Coordinator.emit is the only place any of them moves.
var eventCounters = map[string]struct {
	fleet        *obs.Counter
	worker       string
	report       func(*Report) *int
	workerReport func(*WorkerReport) *int
}{
	"dispatch": {obs.Default.Counter("fabric.shards.dispatched"), "dispatched",
		func(r *Report) *int { return &r.Dispatched }, func(w *WorkerReport) *int { return &w.Dispatched }},
	"hedge": {obs.Default.Counter("fabric.shards.hedged"), "hedged",
		func(r *Report) *int { return &r.Hedged }, nil},
	"complete": {obs.Default.Counter("fabric.shards.completed"), "completed",
		func(r *Report) *int { return &r.Completed }, func(w *WorkerReport) *int { return &w.Completed }},
	"duplicate": {obs.Default.Counter("fabric.shards.duplicate_results"), "",
		func(r *Report) *int { return &r.Duplicates }, nil},
	"retry": {obs.Default.Counter("fabric.shards.retried"), "retried",
		func(r *Report) *int { return &r.Retried }, nil},
	"failure": {obs.Default.Counter("fabric.shards.failed"), "", nil, nil},
	"circuit_open": {obs.Default.Counter("fabric.circuit.opens"), "circuit.opens",
		func(r *Report) *int { return &r.Opens }, func(w *WorkerReport) *int { return &w.CircuitOpens }},
	"probe": {obs.Default.Counter("fabric.circuit.probes"), "",
		func(r *Report) *int { return &r.Probes }, nil},
}

// workerCounter returns the per-worker counter fabric.worker.<idx>.<name>,
// registering it on its first move.
func workerCounter(idx int, name string) *obs.Counter {
	return obs.Default.Counter(fmt.Sprintf("fabric.worker.%d.%s", idx, name))
}
