package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"
	"unsafe"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/infer"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/sensing"
	"github.com/groupdetect/gbd/internal/target"
)

// The trial kernel. Every campaign shape — plain, faulty, lossy, inferred,
// mixed-fleet, multi-target, and internal/system's end-to-end pipeline —
// runs this one staged trial body on this one executor. The stages, their
// draws from the trial's stream, and the knob that turns each on:
//
//	deploy      always: 2 draws per sensor (X, Y), class by class
//	alive       Faults: Faults.Masks for the whole mission
//	relay       CommRange: base station and lazy routing table, no draws
//	track(s)    always: target.Sample per target, resampled until
//	            separated when several targets share a trial
//	index       always: one grid index per class over the cells the
//	            tracks' bounding box, inflated by its Rs, overlaps; no draws
//	per period, track by track, then sensor by sensor:
//	  sense         always: 1 draw per alive in-range sensor (none when
//	                Pd = 1); the dwell model's draw under ExposureLambda
//	  false alarms  FalseAlarmP: 1 draw per alive sensor
//	  beacons       Beacons: 1 status frame per alive sensor
//	  deliver       each report or beacon as it is generated: 1 draw on the
//	                flat uplink (PDeliver), the relay's per-hop draws
//	                (CommRange), none otherwise
//	  infer         Infer: Engine.Observe on what arrived, no draws
//	window      always: the sliding K-of-M rule per target, no draws
//
// A stage that is off draws nothing, so turning a knob on never moves the
// draws of the stages before it, and each campaign shape keeps the draw
// order it had when it ran its own loop. Under SchemePhilox the deploy and
// sense stages draw straight from the concrete Philox — one bulk
// Float64s fill per deployment, Bernoulli draws without the interface hop
// — which advance the same stream as the *rand.Rand the other stages use.

// class is one sensor class of the deploy and sense stages: sensor ids
// [off, off+count) of the trial's deployment share its sensing model.
type class struct {
	off, count int
	disk       sensing.Disk
	exposure   sensing.Exposure // Lambda > 0 switches sensing to the dwell model
}

// plan is a campaign resolved into kernel stages. It is built once per
// campaign and only read while the workers run, so they all share it.
type plan struct {
	cfg      Config
	bounds   geom.Rect
	classes  []class
	classBuf [1]class // backs classes for the common single-class fleet
	n        int      // sensors per trial, over all classes
	targets  int      // tracks per trial
	minSep   float64  // least distance between a trial's tracks at every period boundary
	fa       sensing.FalseAlarm
	uplink   bool // deliver over the flat lossy uplink (PDeliver in (0, 1))
	relay    bool // deliver hop by hop over the unit-disk network (CommRange)
	record   bool // keep each trial's generated reports for Visit
}

// newPlan resolves cfg's defaults and then its stages. Nil classes means
// one class with cfg.Params' N, Rs and Pd.
func newPlan(cfg Config, classes []detect.SensorClass, targets int, minSep float64) (*plan, error) {
	pl := &plan{}
	return pl, pl.init(cfg, classes, targets, minSep)
}

// init fills pl in place, as newPlan describes.
func (pl *plan) init(cfg Config, classes []detect.SensorClass, targets int, minSep float64) error {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	if classes == nil {
		classes = []detect.SensorClass{{Count: cfg.Params.N, Rs: cfg.Params.Rs, Pd: cfg.Params.Pd}}
	}
	fa, err := sensing.NewFalseAlarm(cfg.FalseAlarmP)
	if err != nil {
		return err
	}
	*pl = plan{
		cfg:     cfg,
		bounds:  geom.Square(cfg.Params.FieldSide),
		targets: targets,
		minSep:  minSep,
		fa:      fa,
		uplink:  cfg.PDeliver > 0 && cfg.PDeliver < 1,
	}
	pl.classes = pl.classBuf[:0]
	for _, c := range classes {
		cl := class{off: pl.n, count: c.Count}
		if cl.disk, err = sensing.NewDisk(c.Rs, c.Pd); err != nil {
			return err
		}
		if cfg.ExposureLambda > 0 {
			if cl.exposure, err = sensing.NewExposure(c.Rs, cfg.ExposureLambda); err != nil {
				return err
			}
		}
		pl.classes = append(pl.classes, cl)
		pl.n += c.Count
	}
	pl.relay = cfg.CommRange > 0 && pl.n > 0
	return nil
}

// outcome is one target's verdict in a trial: its arrived report count
// and the first period its window reached K (0 if never).
type outcome struct {
	reports, detectedAt int
}

// kernel is one worker's trial state: scratch that every trial on the
// worker reuses — and, through kernelPool, every later campaign — plus the
// outcome of the last trial it ran. Nothing in it may escape into results.
type kernel struct {
	pl     *plan
	own    plan // RunTrial's plan, built in place so one trial allocates none
	stream *field.Stream
	rng    *rand.Rand
	ph     *field.Philox // non-nil under SchemePhilox
	ticks  uint64        // trials run, driving the 1-in-64 timing sampler

	u         []float64 // the deployment's uniform draws
	sensors   []geom.Point
	idx       []field.Index // one per class
	tracks    [][]geom.Point
	arrivals  []int // target j's arrivals per 1-based period, at [j*(mission+1):]
	buf       []int // spatial-query result buffer
	masks     [][]bool
	relay     relayState
	eng       *infer.Engine
	heardNow  []bool // sensors heard at the base this period (Infer)
	allAlive  []bool // ground truth when no fault model runs (Infer)
	genNow    int    // frames handed to the deliver stage this period
	delNow    int    // frames that arrived within this period
	reported  []bool // sensors with an arrived report; detailed trials only
	generated []Report

	// Outcome of the last trial.
	out    []outcome // per target
	faults FaultStats
	infer  InferStats
}

var kernelPool = sync.Pool{
	New: func() any {
		scratchNews.Inc()
		return &kernel{stream: field.NewStream(), buf: make([]int, 0, 16)}
	},
}

// getKernel checks a kernel out of the pool for pl; gets minus news is
// the number of pooled reuses.
func getKernel(pl *plan) *kernel {
	scratchGets.Inc()
	k := kernelPool.Get().(*kernel)
	k.pl = pl
	return k
}

func putKernel(k *kernel) {
	k.pl, k.masks, k.eng = nil, nil, nil
	kernelPool.Put(k)
}

// cancelCheckMask amortizes cancellation checks to one poll every 32
// trials: a trial is microseconds of pure CPU, so per-trial channel reads
// would dominate the hot loop while a 32-trial stop lag is invisible.
const cancelCheckMask = 31

// stripe is one worker's share of a campaign: its accumulator and the
// error that stopped it, if any.
type stripe[A any] struct {
	acc A
	err error
	_   [64]byte // keeps neighbouring workers' accumulators off one cache line
}

// execute is the kernel's executor. Worker w runs trials w, w+workers,
// ... on its own pooled kernel, polling ctx between trials, and folds each
// finished trial into its own accumulator. The accumulators come back in
// worker order and trial i draws only from stream (Seed, i), so callers
// that merge them in order get results independent of scheduling.
func execute[A any](ctx context.Context, pl *plan, fold func(acc *A, k *kernel) error) ([]A, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := min(pl.cfg.Workers, pl.cfg.Trials)
	stripes := make([]stripe[A], workers)
	if workers == 1 {
		// Run the single stripe inline: no goroutine hand-off per call in
		// the common benchmark and sweep-under-sweep shapes.
		runStripe(ctx, pl, 0, 1, &stripes[0], fold)
	} else {
		var wg sync.WaitGroup
		for w := range stripes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runStripe(ctx, pl, w, workers, &stripes[w], fold)
			}()
		}
		wg.Wait()
	}
	accs := make([]A, workers)
	for w := range stripes {
		if stripes[w].err != nil {
			return nil, stripes[w].err
		}
		accs[w] = stripes[w].acc
	}
	return accs, nil
}

// runStripe runs worker w's trials into st.
func runStripe[A any](ctx context.Context, pl *plan, w, workers int, st *stripe[A], fold func(acc *A, k *kernel) error) {
	k := getKernel(pl)
	defer putKernel(k)
	// Counted once per stripe, not per trial: workers share no cache line
	// on the hot path.
	ran := 0
	defer func() { trialsTotal.Add(uint64(ran)) }()
	done := ctx.Done()
	polls := 0
	for trial := w; trial < pl.cfg.Trials; trial, ran = trial+workers, ran+1 {
		if done != nil {
			if polls++; polls&cancelCheckMask == 0 {
				select {
				case <-done:
					st.err = ctx.Err()
					return
				default:
				}
			}
		}
		if st.err = k.run(trial, false); st.err != nil {
			return
		}
		if st.err = fold(&st.acc, k); st.err != nil {
			return
		}
	}
}

// run executes one trial through every stage, leaving its outcome in k.
// detailed additionally records which sensors' reports arrived.
func (k *kernel) run(trial int, detailed bool) error {
	if k.ticks++; k.ticks&trialSampleMask == 0 {
		start := time.Now()
		defer func() { trialSeconds.Observe(time.Since(start).Seconds()) }()
	}
	pl := k.pl
	cfg := &pl.cfg
	mission := cfg.MissionPeriods
	k.rng = k.stream.At(cfg.RNG, cfg.Seed, int64(trial))
	k.ph = nil
	if cfg.RNG == field.SchemePhilox {
		k.ph = k.stream.Philox()
	}

	if err := k.deploy(); err != nil {
		return err
	}
	k.masks = nil
	if cfg.Faults != nil {
		if err := k.alive(); err != nil {
			return err
		}
	}
	if pl.relay {
		if err := k.relay.rebuild(k.sensors, cfg.CommRange, pl.bounds); err != nil {
			return err
		}
	}
	// The failure inferencer consumes no randomness — all its inputs are
	// what the base station observed — so enabling it never perturbs the
	// trial.
	k.eng = nil
	k.infer = InferStats{}
	if cfg.Infer != nil {
		eng, err := infer.New(pl.n, *cfg.Infer)
		if err != nil {
			return err
		}
		k.eng = eng
		k.heardNow = bools(k.heardNow, pl.n, false)
		if k.masks == nil {
			k.allAlive = bools(k.allAlive, pl.n, true)
		}
	}
	if err := k.sampleTracks(); err != nil {
		return err
	}
	if err := k.index(); err != nil {
		return err
	}

	k.arrivals = padded(k.arrivals, pl.targets*(mission+1))
	clear(k.arrivals)
	k.faults = FaultStats{}
	k.generated = k.generated[:0]
	k.reported = k.reported[:0]
	if detailed {
		k.reported = bools(k.reported, pl.n, false)
	}
	aliveFracSum := 0.0
	var prevMask []bool
	aliveFrac := 1.0
	for period := 1; period <= mission; period++ {
		k.genNow, k.delNow = 0, 0
		if k.eng != nil {
			clear(k.heardNow)
		}
		var mask []bool
		if k.masks != nil {
			mask = k.masks[period-1]
			// Masks mostly repeat period to period, and a repeat has the
			// same alive fraction: count only a changed one.
			if prevMask == nil || !slices.Equal(prevMask, mask) {
				aliveFrac = faults.AliveFraction(mask)
			}
			prevMask = mask
		}
		aliveFracSum += aliveFrac
		for j, track := range k.tracks {
			if err := k.sense(geom.Segment{A: track[period-1], B: track[period]}, j, period, mask); err != nil {
				return err
			}
		}
		if pl.fa.P > 0 {
			for s := 0; s < pl.n; s++ {
				if (mask == nil || mask[s]) && pl.fa.Fires(k.rng) {
					if err := k.deliver(s, -1, period, mask); err != nil {
						return err
					}
				}
			}
		}
		if cfg.Beacons {
			for s := 0; s < pl.n; s++ {
				if mask == nil || mask[s] {
					if err := k.beacon(s, mask); err != nil {
						return err
					}
				}
			}
		}
		if k.eng != nil {
			if err := k.observe(mask); err != nil {
				return err
			}
		}
	}
	k.faults.MeanAliveFrac = aliveFracSum / float64(mission)
	if cfg.Faults == nil && cfg.CommRange == 0 && !pl.uplink && !cfg.Beacons && cfg.Infer == nil {
		k.faults = FaultStats{} // no fault accounting without a fault or delivery model
	}
	if k.eng != nil {
		if err := k.scoreInference(); err != nil {
			return err
		}
	}
	k.window()
	return nil
}

// deploy is the deploy stage: every class uniform over the field,
// class after class, X then Y per sensor — field.UniformInto's draws, in
// one bulk Float64s fill under philox.
func (k *kernel) deploy() error {
	pl := k.pl
	b := pl.bounds
	k.u = padded(k.u, 2*pl.n)
	if k.ph != nil {
		k.ph.Float64s(k.u)
	} else {
		for i := range k.u {
			k.u[i] = k.rng.Float64()
		}
	}
	k.sensors = padded(k.sensors, pl.n)
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	for i := range k.sensors {
		k.sensors[i] = geom.Point{X: b.MinX + k.u[2*i]*w, Y: b.MinY + k.u[2*i+1]*h}
	}
	return nil
}

// index is the index stage: one spatial index per class over just the
// grid cells the tracks' bounding box, inflated by the class's Rs,
// overlaps. Every segment the sense stage queries lies inside that window,
// so the queries return what an index over the whole field would, while
// the build touches a few cells instead of the field's.
func (k *kernel) index() error {
	pl := k.pl
	box := geom.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, track := range k.tracks {
		for _, p := range track {
			box.MinX, box.MaxX = min(box.MinX, p.X), max(box.MaxX, p.X)
			box.MinY, box.MaxY = min(box.MinY, p.Y), max(box.MaxY, p.Y)
		}
	}
	k.idx = padded(k.idx, len(pl.classes))
	for c, cl := range pl.classes {
		rs := cl.disk.Rs
		win := geom.Rect{MinX: box.MinX - rs, MinY: box.MinY - rs, MaxX: box.MaxX + rs, MaxY: box.MaxY + rs}
		cell := indexCellSize(rs, pl.cfg.Params.FieldSide)
		if err := k.idx[c].Rebuild(k.sensors[cl.off:cl.off+cl.count], pl.bounds, win, cell); err != nil {
			return err
		}
	}
	return nil
}

// indexCellSize picks a grid cell on the order of the sensing range,
// bounded so tiny ranges in huge fields do not explode the cell count.
func indexCellSize(rs, fieldSide float64) float64 {
	return max(rs, fieldSide/256)
}

// alive is the alive stage: the fault model's per-period masks for the
// whole mission, drawn before the track so the draw order is stable
// whatever the motion model.
func (k *kernel) alive() error {
	pl := k.pl
	mission := pl.cfg.MissionPeriods
	masks, err := pl.cfg.Faults.Masks(k.sensors, pl.bounds, mission, k.rng)
	if err != nil {
		return err
	}
	if len(masks) != mission {
		return fmt.Errorf("fault model returned %d masks for %d periods: %w", len(masks), mission, ErrConfig)
	}
	for t, m := range masks {
		if len(m) != pl.n {
			return fmt.Errorf("fault mask %d covers %d of %d nodes: %w", t+1, len(m), pl.n, ErrConfig)
		}
	}
	k.masks = masks
	return nil
}

// sampleTracks is the track stage: one track per target, each resampled
// until it keeps minSep from the tracks already placed (the first always
// does).
func (k *kernel) sampleTracks() error {
	pl := k.pl
	confine := pl.cfg.Confine == ConfineRejection
	k.tracks = padded(k.tracks, pl.targets)[:0]
	for j := 0; j < pl.targets; j++ {
		placed := false
		for a := 0; a < target.ConfineAttempts && !placed; a++ {
			track, err := target.Sample(pl.cfg.Model, pl.bounds, pl.cfg.MissionPeriods, confine, k.rng)
			if err != nil {
				return err
			}
			if placed = tracksSeparated(track, k.tracks, pl.minSep); placed {
				k.tracks = append(k.tracks, track)
			}
		}
		if !placed {
			return &separationError{targets: pl.targets, minSep: pl.minSep}
		}
	}
	return nil
}

// sense is the sense stage for target j's segment in one period: every
// alive sensor in range of seg, class by class, draws its detection and
// hands a report to the deliver stage at once.
func (k *kernel) sense(seg geom.Segment, j, period int, mask []bool) error {
	pl := k.pl
	speed := 0.0
	if pl.cfg.ExposureLambda > 0 {
		speed = seg.Length() / pl.cfg.Params.T.Seconds()
	}
	for c := range pl.classes {
		cl := &pl.classes[c]
		k.buf = k.idx[c].QuerySegment(seg, cl.disk.Rs, k.buf[:0])
		for _, local := range k.buf {
			id := cl.off + local
			if mask != nil && !mask[id] {
				continue // dead sensors do not sense
			}
			// QuerySegment applied the exact distance predicate
			// sensing.Disk.Covers would, so the flat model is just its
			// Bernoulli(Pd) draw, skipped at Pd = 1 as Disk.Detects skips it.
			var hit bool
			switch {
			case cl.exposure.Lambda > 0:
				hit = cl.exposure.Detects(k.sensors[id], seg, speed, k.rng)
			case cl.disk.Pd >= 1:
				hit = true
			case k.ph != nil:
				hit = k.ph.Float64() < cl.disk.Pd
			default:
				hit = k.rng.Float64() < cl.disk.Pd
			}
			if !hit {
				continue
			}
			if err := k.deliver(id, j, period, mask); err != nil {
				return err
			}
		}
	}
	return nil
}

// deliver is the deliver stage for one report sensor id generated in
// period. An arrival counts toward target j's window at its arrival
// period — every target's when j < 0, since a false alarm belongs to no
// track. Late relay arrivals still count, but the inferencer saw silence
// this period.
func (k *kernel) deliver(id, j, period int, mask []bool) error {
	pl := k.pl
	if pl.record {
		k.generated = append(k.generated, Report{Sensor: id, Period: period})
	}
	k.faults.Generated++
	k.genNow++
	d, err := k.transmit(id, mask)
	if err != nil {
		return err
	}
	if d.Rerouted {
		k.faults.Rerouted++
	}
	at := period
	switch d.Outcome {
	case netsim.Delivered:
		k.faults.Delivered++
		k.heard(id)
	case netsim.Late:
		if at += d.PeriodsLate(pl.cfg.Params.T); at > pl.cfg.MissionPeriods {
			k.faults.Lost++ // the mission ended before it arrived
			return nil
		}
		k.faults.Late++
	default:
		k.faults.Lost++
		return nil
	}
	stride := pl.cfg.MissionPeriods + 1
	for t := 0; t < pl.targets; t++ {
		if j < 0 || j == t {
			k.arrivals[t*stride+at]++
		}
	}
	if len(k.reported) > 0 {
		k.reported[id] = true
	}
	return nil
}

// beacon sends one status beacon through the deliver stage. Beacons never
// count toward the K-of-M rule and stay out of the FaultStats report
// accounting; they exist for the inferencer.
func (k *kernel) beacon(id int, mask []bool) error {
	k.genNow++
	d, err := k.transmit(id, mask)
	if err == nil && d.Outcome == netsim.Delivered {
		k.heard(id)
	}
	return err
}

// transmit carries one frame from sensor id to the base: over the flat
// uplink (one draw), hop by hop over the relay, or — with neither — there
// at once.
func (k *kernel) transmit(id int, mask []bool) (netsim.Delivery, error) {
	pl := k.pl
	switch {
	case pl.uplink:
		if k.rng.Float64() >= pl.cfg.PDeliver {
			return netsim.Delivery{Outcome: netsim.Lost}, nil
		}
	case pl.relay:
		return k.relay.send(id, mask, pl.cfg.Loss, k.rng)
	}
	return netsim.Delivery{Outcome: netsim.Delivered}, nil
}

// heard marks sensor id as observed at the base this period.
func (k *kernel) heard(id int) {
	k.delNow++
	if k.eng != nil {
		k.heardNow[id] = true
	}
}

// observe is the infer stage: the engine reads this period's arrivals and
// is scored against the ground-truth mask.
func (k *kernel) observe(mask []bool) error {
	if err := k.eng.Observe(k.heardNow, k.genNow, k.delNow); err != nil {
		return err
	}
	k.infer.Generated += k.genNow
	k.infer.Delivered += k.delNow
	truth := mask
	if truth == nil {
		truth = k.allAlive
	}
	c, err := k.eng.Score(truth)
	if err != nil {
		return err
	}
	k.infer.PerPeriod.Add(c)
	k.infer.Periods += k.pl.n
	return nil
}

// scoreInference is the end-of-mission inference scoring: the final mask
// confusion, the declaration and retraction tallies, and time-to-detect
// for every dead sensor the engine caught at or after its true death.
func (k *kernel) scoreInference() error {
	n, mission := k.pl.n, k.pl.cfg.MissionPeriods
	final := k.allAlive
	if k.masks != nil {
		final = k.masks[mission-1]
	}
	c, err := k.eng.Score(final)
	if err != nil {
		return err
	}
	s := &k.infer
	s.Final = c
	s.Sensors = n
	s.Declarations = k.eng.Declarations()
	s.Retractions = k.eng.Retractions()
	s.InferredDead = k.eng.DeadCount()
	for i := 0; i < n; i++ {
		if final[i] {
			continue
		}
		s.TruthDead++
		died := 0
		for t := 0; t < mission; t++ {
			if !k.masks[t][i] {
				died = t + 1
				break
			}
		}
		if at := k.eng.DeclaredAt(i); died != 0 && at >= died {
			s.TTDSum += at - died + 1
			s.TTDCount++
		}
	}
	infer.CountFalseAlarms(c.FP)
	return nil
}

// window is the window stage: per target, the base evaluates the sliding
// K-of-M rule — any M consecutive periods, or the first min(period, M) —
// on what arrived, period by period.
func (k *kernel) window() {
	prm := k.pl.cfg.Params
	stride := k.pl.cfg.MissionPeriods + 1
	k.out = padded(k.out, k.pl.targets)
	for j := range k.out {
		row := k.arrivals[j*stride : (j+1)*stride]
		o := outcome{}
		win := 0
		for period := 1; period < stride; period++ {
			o.reports += row[period]
			win += row[period]
			if period > prm.M {
				win -= row[period-prm.M]
			}
			if o.detectedAt == 0 && win >= prm.K {
				o.detectedAt = period
			}
		}
		k.out[j] = o
	}
}

// detail copies the last single-target trial out of the scratch.
func (k *kernel) detail() *TrialResult {
	o := k.out[0]
	mission := k.pl.cfg.MissionPeriods
	tr := &TrialResult{
		Detected:   o.detectedAt > 0,
		DetectedAt: o.detectedAt,
		Reports:    o.reports,
		PerPeriod:  append([]int(nil), k.arrivals[1:mission+1]...),
		Track:      k.tracks[0], // freshly drawn by the motion model, not scratch
		Sensors:    append([]geom.Point(nil), k.sensors...),
		Faults:     k.faults,
	}
	n := 0
	for _, r := range k.reported {
		if r {
			n++
		}
	}
	tr.Reporters = make([]int, 0, n)
	for id, r := range k.reported {
		if r {
			tr.Reporters = append(tr.Reporters, id)
		}
	}
	if k.eng != nil {
		s := k.infer
		tr.Infer = &s
	}
	return tr
}

// padded returns s resized to n, keeping its backing array when large
// enough. A new one gets at least a cache line of spare capacity past the
// end: a worker rewrites these arrays every trial, and the allocator packs
// small objects side by side, so without the spare line two workers'
// arrays could share a cache line and slow each other down.
func padded[T any](s []T, n int) []T {
	if cap(s) < n {
		var zero T
		s = make([]T, n, n+64/int(max(unsafe.Sizeof(zero), 1))+1)
	}
	return s[:n]
}

// bools returns s resized to n with every element set to v.
func bools(s []bool, n int, v bool) []bool {
	s = padded(s, n)
	for i := range s {
		s[i] = v
	}
	return s
}
