package sim

import (
	"github.com/groupdetect/gbd/internal/obs"
)

// Metric handles are resolved once at package init. The trial hot path
// touches them only via atomic operations — sim.trials once per kernel
// stripe, not per trial, and never for other callers of Execute — and
// nothing here consumes trial randomness, so
// instrumented campaigns remain bit-identical to uninstrumented ones (the
// determinism goldens assert it).
//
// Per-trial wall-clock timing is sampled 1-in-(trialSampleMask+1), on each
// kernel's own trial count: clock reads cost ~100ns on virtualized hosts,
// which would blow the <2% single-trial overhead budget if paid on every
// ~20µs trial. The sampled histogram keeps its own observation count, so
// mean trial time is still Sum/Count; only the sample size shrinks.
var (
	trialsTotal  = obs.Default.Counter("sim.trials")
	trialSeconds = obs.Default.Histogram("sim.trial_seconds", obs.SecondsBuckets())
	scratchNews  = obs.Default.Counter("sim.scratch.news")
	scratchGets  = obs.Default.Counter("sim.scratch.gets")
)

const trialSampleMask = 63 // time 1 trial in 64
