package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
	"unsafe"

	"github.com/groupdetect/gbd/internal/detect"
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
//	alive       Faults: Faults.Deaths, one death period per sensor for the
//	            whole mission, bucketed by period; per period the kernel
//	            flips that period's dying sensors in one live alive mask
//	relay       CommRange: base station and lazy routing table, no draws
//	track(s)    always: target.SampleInto per target, resampled until
//	            separated when several targets share a trial
//	index       off the count path: one grid index per class over the
//	            cells the tracks' bounding box, inflated by its Rs,
//	            overlaps; no draws
//	cover       on the count path instead of index: per track and class,
//	            each sensor's span of covered periods (geom.Line.Cover)
//	            summed into per-period covered counts; no draws
//	per period, track by track, then sensor by sensor:
//	  sense         always: 1 draw per alive in-range sensor (none when
//	                Pd = 1); the dwell model's draw under ExposureLambda;
//	                on the count path the same draws, one per covered
//	                count, class by class
//	  false alarms  FalseAlarmP: 1 draw per alive sensor
//	  beacons       Beacons: 1 status frame per alive sensor, in id order
//	  deliver       each report or beacon as it is generated: 1 draw on the
//	                flat uplink (PDeliver), the relay's per-hop draws
//	                (CommRange), none otherwise; the period's beacon draws
//	                on the flat uplink come in one fill
//	  infer         Infer: Engine.Observe on what arrived, no draws; the
//	                score against the alive mask is taken again only when
//	                the mask or the engine's declarations changed
//	window      always: the sliding K-of-M rule per target, no draws
//
// That is the legacy scheme's order. Under SchemePhilox the track comes
// first, so that the deploy stage only places the sensors that can see it:
//
//	track(s)    as above
//	deploy      per class: 1 draw for n_in ~ Binomial(count, |W∩F|/|F|),
//	            W the class's index window and F the field, then 2 draws
//	            (X, Y) per sensor uniform in W∩F, one bulk Float64s fill
//	rest        Faults, CommRange, a detailed RunTrial or Visit: the other
//	            count − n_in sensors of each class, uniform in F \ W by
//	            rejection — one bulk fill of 2 draws per sensor, then 2 per
//	            redrawn candidate — from the trial's rest range
//	            (restStage), so drawing them moves no other draw
//	alive       as above
//	relay       as above
//	index       as above, over the n_in sensors of each class
//	cover       as above, over the n_in sensors of each class
//	per period  as above
//	window      as above
//
// The count path is every trial in which no stage reads sensor identity:
// a target.Straight model, no ExposureLambda, Faults, CommRange, PDeliver
// uplink, Beacons or Infer, and neither a detailed RunTrial nor Visit. A
// straight track meets each sensor's disk in one chord, so its covered
// periods are one span, and the sense stage needs only how many sensors
// cover each period: the count of draws below Pd among that many draws in
// a row does not depend on which sensor owns which draw, so both schemes
// give the same arrivals as the per-sensor sense stage.
//
// Sensor ids stay class after class; within a class the in-window sensors
// come first. A stage that is off draws nothing, so turning a knob on
// never moves the draws of the stages before it, and each campaign shape
// keeps its draw order under the legacy scheme. Under SchemePhilox the
// deploy and sense stages draw straight from the concrete Philox — bulk
// Float64s fills, Bernoulli draws without the interface hop — which
// advance the same stream as the *rand.Rand the other stages use.

// restStage is the Philox stage range (field.Philox.Seek) of the
// out-of-window sensors; every other draw comes from stage 0.
const restStage = 1

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
	heard    bool // Beacons or Infer: note who the base heard each period
	// counted: no stage reads sensor identity, so a trial that records
	// nothing senses from per-period covered counts (see coverCounts).
	counted bool
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
	pl.heard = cfg.Beacons || cfg.Infer != nil
	_, straight := cfg.Model.(target.Straight)
	pl.counted = straight && cfg.ExposureLambda == 0 && cfg.Faults == nil && !pl.relay &&
		!pl.uplink && !cfg.Beacons && cfg.Infer == nil
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
	inWin     []int         // per class: its sensors the index holds, ids [off, off+inWin)
	idx       []field.Index // one per class
	tracks    [][]geom.Point
	box       geom.Rect // the tracks' bounding box
	arrivals  []int     // target j's arrivals per 1-based period, at [j*(mission+1):]
	cover     []int32   // count path: per (target, class) row, covered sensors per period
	buf       []int     // spatial-query result buffer
	deaths    []int     // Faults: each sensor's death period (faults.Model)
	dying     []int     // Faults: sensor ids sorted by death period
	dyingEnd  []int     // Faults: period p's dying sensors are dying[dyingEnd[p-1]:dyingEnd[p]]
	alive     []bool    // this period's alive mask; all true without Faults (Faults, Beacons, Infer)
	nAlive    int       // true entries of alive
	relay     relayState
	eng       infer.Engine    // Reset every trial (Infer)
	scored    infer.Confusion // eng's last Score of alive
	scoredAt  [2]int          // eng's Declarations and Retractions at that Score
	heardNow  []bool          // sensors heard at the base this period (Beacons, Infer)
	beaconU   []float64       // the beacon stage's delivery draws on the flat uplink
	genNow    int             // frames handed to the deliver stage this period
	delNow    int             // frames that arrived within this period
	reported  []bool          // sensors with an arrived report; detailed trials only
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
	k.pl = nil
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

// Execute is the striped trial executor. Worker w of min(workers, trials)
// runs trials w, w+workers, ..., polling ctx every 32 trials, and folds each
// trial into its own accumulator through the trial function newWorker
// returned for it; release, if not nil, runs when the worker's stripe ends.
// newWorker runs on the worker's goroutine. The accumulators come back in
// worker order, so a caller whose trial t draws only from its own streams
// and who merges them in order gets results independent of scheduling.
// The first error any worker returned fails the call.
func Execute[A any](ctx context.Context, trials, workers int, newWorker func() (trial func(acc *A, t int) error, release func())) ([]A, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers = min(workers, trials)
	stripes := make([]stripe[A], workers)
	if workers == 1 {
		// Run the single stripe inline: no goroutine hand-off per call in
		// the common benchmark and sweep-under-sweep shapes.
		runStripe(ctx, trials, 0, 1, &stripes[0], newWorker)
	} else {
		var wg sync.WaitGroup
		for w := range stripes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runStripe(ctx, trials, w, workers, &stripes[w], newWorker)
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
func runStripe[A any](ctx context.Context, trials, w, workers int, st *stripe[A], newWorker func() (func(*A, int) error, func())) {
	trial, release := newWorker()
	if release != nil {
		defer release()
	}
	done := ctx.Done()
	polls := 0
	for t := w; t < trials; t += workers {
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
		if st.err = trial(&st.acc, t); st.err != nil {
			return
		}
	}
}

// execute runs pl's campaign on Execute, one pooled kernel per worker.
func execute[A any](ctx context.Context, pl *plan, fold func(acc *A, k *kernel) error) ([]A, error) {
	return Execute(ctx, pl.cfg.Trials, pl.cfg.Workers, func() (func(*A, int) error, func()) {
		k := getKernel(pl)
		// Counted once per stripe, not per trial: workers share no cache
		// line on the hot path.
		ran := 0
		trial := func(acc *A, t int) error {
			if err := k.run(t, false); err != nil {
				return err
			}
			if err := fold(acc, k); err != nil {
				return err
			}
			ran++
			return nil
		}
		return trial, func() {
			trialsTotal.Add(uint64(ran))
			putKernel(k)
		}
	})
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

	if k.ph != nil {
		if err := k.sampleTracks(); err != nil {
			return err
		}
		k.deployWindow(detailed || pl.record || pl.relay || cfg.Faults != nil)
	} else if err := k.deploy(); err != nil {
		return err
	}
	if cfg.Faults != nil {
		if err := k.drawDeaths(); err != nil {
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
	k.infer = InferStats{}
	if cfg.Infer != nil {
		if err := k.eng.Reset(pl.n, *cfg.Infer); err != nil {
			return err
		}
	}
	if cfg.Faults != nil || pl.heard {
		k.alive = bools(k.alive, pl.n, true)
		k.nAlive = pl.n
	}
	if pl.heard {
		k.heardNow = bools(k.heardNow, pl.n, false)
	}
	if k.ph == nil {
		if err := k.sampleTracks(); err != nil {
			return err
		}
	}
	counted := pl.counted && !pl.record && !detailed
	if counted {
		k.coverCounts()
	} else if err := k.index(); err != nil {
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
	// The stages read the alive mask only under a fault model; nil tells
	// them every sensor is alive.
	var mask []bool
	if cfg.Faults != nil {
		mask = k.alive
	}
	aliveFrac, aliveFracSum := 1.0, 0.0
	for period := 1; period <= mission; period++ {
		k.genNow, k.delNow = 0, 0
		if pl.heard {
			clear(k.heardNow)
		}
		// changed: this period's alive mask differs from the last one, or
		// there was none.
		changed := period == 1
		if cfg.Faults != nil {
			dying := k.dying[k.dyingEnd[period-1]:k.dyingEnd[period]]
			for _, id := range dying {
				k.alive[id] = false
			}
			k.nAlive -= len(dying)
			if len(dying) > 0 {
				changed = true
				k.relay.stale = true
			}
			if changed && pl.n > 0 {
				aliveFrac = float64(k.nAlive) / float64(pl.n)
			}
		}
		aliveFracSum += aliveFrac
		for j, track := range k.tracks {
			if counted {
				k.senseCounted(j, period)
			} else if err := k.sense(geom.Segment{A: track[period-1], B: track[period]}, j, period, mask); err != nil {
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
			if err := k.beacons(mask); err != nil {
				return err
			}
		}
		if cfg.Infer != nil {
			if err := k.observe(changed); err != nil {
				return err
			}
		}
	}
	k.faults.MeanAliveFrac = aliveFracSum / float64(mission)
	if cfg.Faults == nil && cfg.CommRange == 0 && !pl.uplink && !cfg.Beacons && cfg.Infer == nil {
		// No fault or delivery model: no counts, and every sensor alive.
		k.faults = FaultStats{MeanAliveFrac: 1}
	}
	if cfg.Infer != nil {
		k.scoreInference()
	}
	k.window()
	return nil
}

// deploy is the legacy deploy stage: every class uniform over the field,
// class after class, X then Y per sensor — field.UniformInto's draws.
func (k *kernel) deploy() error {
	pl := k.pl
	b := pl.bounds
	k.u = padded(k.u, 2*pl.n)
	k.fill(k.u)
	k.sensors = padded(k.sensors, pl.n)
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	for i := range k.sensors {
		k.sensors[i] = geom.Point{X: b.MinX + k.u[2*i]*w, Y: b.MinY + k.u[2*i+1]*h}
	}
	k.inWin = padded(k.inWin, len(pl.classes))
	for c, cl := range pl.classes {
		k.inWin[c] = cl.count
	}
	return nil
}

// deployWindow is the philox deploy stage, run after the track stage. Of a
// class's count sensors uniform in the field F, the number inside its
// window W is Binomial(count, |W∩F|/|F|), and given that number they are
// uniform in W∩F and the others uniform in F \ W: drawing the split and
// then each side is the same law as drawing every sensor over F. Only
// sensors in W can sense, so unless rest is set the others are not drawn
// at all. They come from the rest range, so drawing them or not moves no
// draw of the main range.
func (k *kernel) deployWindow(rest bool) {
	pl := k.pl
	b := pl.bounds
	k.sensors = padded(k.sensors, pl.n)
	k.inWin = padded(k.inWin, len(pl.classes))
	var far field.Philox
	if rest {
		far = *k.ph
		far.Seek(restStage)
	}
	for c, cl := range pl.classes {
		win := k.indexWindow(cl.disk.Rs)
		in := geom.Rect{
			MinX: max(win.MinX, b.MinX), MinY: max(win.MinY, b.MinY),
			MaxX: min(win.MaxX, b.MaxX), MaxY: min(win.MaxY, b.MaxY),
		}
		n := field.Binomial(cl.count, in.Area()/b.Area(), k.ph.Float64())
		k.inWin[c] = n
		k.u = padded(k.u, 2*n)
		k.ph.Float64s(k.u)
		w, h := in.MaxX-in.MinX, in.MaxY-in.MinY
		sensors := k.sensors[cl.off : cl.off+cl.count]
		for i := range n {
			sensors[i] = geom.Point{X: in.MinX + k.u[2*i]*w, Y: in.MinY + k.u[2*i+1]*h}
		}
		if !rest {
			continue
		}
		// One bulk fill of candidates over F; each one inside W is redrawn
		// until it falls outside.
		k.u = padded(k.u, 2*(cl.count-n))
		far.Float64s(k.u)
		w, h = b.MaxX-b.MinX, b.MaxY-b.MinY
		for i := n; i < cl.count; i++ {
			p := geom.Point{X: b.MinX + k.u[2*(i-n)]*w, Y: b.MinY + k.u[2*(i-n)+1]*h}
			for inside(p, win) {
				p = geom.Point{X: b.MinX + far.Float64()*w, Y: b.MinY + far.Float64()*h}
			}
			sensors[i] = p
		}
	}
}

// inside is geom.Rect.Contains for finite coordinates, boundary included,
// decided by one branch instead of four: r contains p iff none of the four
// edge distances has its sign bit set. The rejection loop tests every
// out-of-window candidate, and on uniform points Contains's first
// comparisons are coin flips the branch predictor cannot learn.
func inside(p geom.Point, r geom.Rect) bool {
	return (math.Float64bits(p.X-r.MinX)|math.Float64bits(r.MaxX-p.X)|
		math.Float64bits(p.Y-r.MinY)|math.Float64bits(r.MaxY-p.Y))>>63 == 0
}

// indexWindow is the index window of a class with sensing range rs: the
// tracks' bounding box inflated by rs. Every segment the sense stage
// queries lies in the box, so every sensor within rs of one lies in the
// window.
func (k *kernel) indexWindow(rs float64) geom.Rect {
	return geom.Rect{MinX: k.box.MinX - rs, MinY: k.box.MinY - rs, MaxX: k.box.MaxX + rs, MaxY: k.box.MaxY + rs}
}

// index is the index stage: one spatial index per class, over its inWin
// sensors and just the grid cells its window overlaps. Every segment the
// sense stage queries lies inside the window, so the queries return what
// an index over the whole field would, while the build touches a few
// cells instead of the field's.
func (k *kernel) index() error {
	pl := k.pl
	k.idx = padded(k.idx, len(pl.classes))
	for c, cl := range pl.classes {
		rs := cl.disk.Rs
		cell := indexCellSize(rs, pl.cfg.Params.FieldSide)
		if err := k.idx[c].Rebuild(k.sensors[cl.off:cl.off+k.inWin[c]], pl.bounds, k.indexWindow(rs), cell); err != nil {
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

// drawDeaths is the alive stage: the fault model's death period of every
// sensor, drawn before the track so the draw order is stable whatever the
// motion model, and the sensors bucketed by it (a counting sort), so each
// period flips just its own dying sensors.
func (k *kernel) drawDeaths() error {
	pl := k.pl
	mission := pl.cfg.MissionPeriods
	deaths, err := pl.cfg.Faults.Deaths(k.deaths, k.sensors, pl.bounds, mission, k.rng)
	if err != nil {
		return err
	}
	if len(deaths) != pl.n {
		return fmt.Errorf("fault model returned %d death periods for %d nodes: %w", len(deaths), pl.n, ErrConfig)
	}
	k.deaths = deaths
	// After the prefix sums end[p] counts the deaths before period p, the
	// start of p's bucket, and placing p's sensors moves it to the bucket's
	// end. Survivors (period mission+1) are placed too, last, so no
	// draw-dependent branch decides who is placed.
	end := padded(k.dyingEnd, mission+3)
	clear(end)
	for id, p := range deaths {
		if p < 1 || p > mission+1 {
			return fmt.Errorf("fault model killed node %d in period %d of %d: %w", id, p, mission, ErrConfig)
		}
		end[p+1]++
	}
	for p := 2; p < len(end); p++ {
		end[p] += end[p-1]
	}
	k.dying = padded(k.dying, pl.n)
	for id, p := range deaths {
		k.dying[end[p]] = id
		end[p]++
	}
	k.dyingEnd = end
	return nil
}

// sampleTracks is the track stage: one track per target, each resampled
// until it keeps minSep from the tracks already placed (the first always
// does), and the tracks' bounding box.
func (k *kernel) sampleTracks() error {
	pl := k.pl
	confine := pl.cfg.Confine == ConfineRejection
	// Each target's track is drawn into the buffer it had last trial.
	k.tracks = padded(k.tracks, pl.targets)
	for j := range k.tracks {
		placed := false
		for a := 0; a < target.ConfineAttempts && !placed; a++ {
			track, err := target.SampleInto(k.tracks[j], pl.cfg.Model, pl.bounds, pl.cfg.MissionPeriods, confine, k.rng)
			if err != nil {
				return err
			}
			k.tracks[j] = track
			placed = tracksSeparated(track, k.tracks[:j], pl.minSep)
		}
		if !placed {
			return &separationError{targets: pl.targets, minSep: pl.minSep}
		}
	}
	k.box = geom.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, track := range k.tracks {
		for _, p := range track {
			k.box.MinX, k.box.MaxX = min(k.box.MinX, p.X), max(k.box.MaxX, p.X)
			k.box.MinY, k.box.MaxY = min(k.box.MinY, p.Y), max(k.box.MaxY, p.Y)
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
			// Bernoulli(Pd) draw, skipped at Pd = 1.
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

// coverCounts is the count path's stand-in for the index stage: per
// target and class, how many of the class's sensors cover each period.
// Each sensor covers one contiguous span of a straight track
// (geom.Line.Cover), added to the row as a difference and summed once.
func (k *kernel) coverCounts() {
	pl := k.pl
	row := pl.cfg.MissionPeriods + 2 // periods 1..mission, then the end mark of a span reaching the last
	k.cover = padded(k.cover, len(k.tracks)*len(pl.classes)*row)
	clear(k.cover)
	for j, track := range k.tracks {
		line := geom.NewLine(track)
		for c, cl := range pl.classes {
			cover := k.cover[(j*len(pl.classes)+c)*row:][:row]
			for _, s := range k.sensors[cl.off : cl.off+k.inWin[c]] {
				if first, last := line.Cover(s, cl.disk.Rs); first <= last {
					cover[first]++
					cover[last+1]--
				}
			}
			for p := 1; p < row; p++ {
				cover[p] += cover[p-1]
			}
		}
	}
}

// senseCounted is the sense stage on the count path, for target j in one
// period: class by class, one Bernoulli(Pd) draw per covering sensor,
// the hits counted at once toward j's window. These are the draws sense
// makes in the same order, and which sensor owns which draw does not
// change how many of them fall below Pd, so the counts match sense's.
func (k *kernel) senseCounted(j, period int) {
	pl := k.pl
	row := pl.cfg.MissionPeriods + 2
	hits := 0
	for c := range pl.classes {
		n := int(k.cover[(j*len(pl.classes)+c)*row+period])
		pd := pl.classes[c].disk.Pd
		switch {
		case pd >= 1:
			hits += n
		case k.ph != nil:
			for range n {
				if k.ph.Float64() < pd {
					hits++
				}
			}
		default:
			for range n {
				if k.rng.Float64() < pd {
					hits++
				}
			}
		}
	}
	k.arrivals[j*(pl.cfg.MissionPeriods+1)+period] += hits
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

// beacons is the beacon stage: one status frame per alive sensor, in id
// order, through the deliver stage. Beacons never count toward the K-of-M
// rule and stay out of the FaultStats report accounting; they exist for
// the inferencer. On the flat uplink each frame's one delivery draw comes
// from a single fill for the whole stage, and the heard marks and counts
// are taken without a branch per draw; over the relay each frame goes
// through transmit.
func (k *kernel) beacons(mask []bool) error {
	pl := k.pl
	if !pl.uplink {
		for s := 0; s < pl.n; s++ {
			if mask != nil && !mask[s] {
				continue
			}
			k.genNow++
			d, err := k.transmit(s, mask)
			if err != nil {
				return err
			}
			if d.Outcome == netsim.Delivered {
				k.heard(s)
			}
		}
		return nil
	}
	// u[j] is the draw of the j-th alive sensor; the spare last entry is
	// read, and ignored, past the last alive one.
	u := padded(k.beaconU, k.nAlive+1)
	k.beaconU = u
	k.fill(u[:k.nAlive])
	pd := pl.cfg.PDeliver
	heard := k.heardNow[:len(k.alive)]
	j, delivered := 0, 0
	for s, a := range k.alive {
		hit := b2i(a) & b2i(u[j] < pd) // transmit: lost iff the draw is >= PDeliver
		heard[s] = heard[s] || hit != 0
		delivered += hit
		j += b2i(a)
	}
	k.genNow += k.nAlive
	k.delNow += delivered
	return nil
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// fill draws len(u) uniforms from the trial's stream in order: one bulk
// Float64s under philox, Float64 calls under legacy.
func (k *kernel) fill(u []float64) {
	if k.ph != nil {
		k.ph.Float64s(u)
		return
	}
	for i := range u {
		u[i] = k.rng.Float64()
	}
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
	if k.pl.heard {
		k.heardNow[id] = true
	}
}

// observe is the infer stage: the engine reads this period's arrivals and
// is scored against the alive mask. The score reads only which sensors
// are declared, which moves only with the engine's declaration and
// retraction counts, so it is taken again only when the mask changed or
// one of those counts moved.
func (k *kernel) observe(changed bool) error {
	if err := k.eng.Observe(k.heardNow, k.genNow, k.delNow); err != nil {
		return err
	}
	k.infer.Generated += k.genNow
	k.infer.Delivered += k.delNow
	if at := [2]int{k.eng.Declarations(), k.eng.Retractions()}; changed || at != k.scoredAt {
		c, err := k.eng.Score(k.alive)
		if err != nil {
			return err
		}
		k.scored, k.scoredAt = c, at
	}
	k.infer.PerPeriod.Add(k.scored)
	k.infer.Periods += k.pl.n
	return nil
}

// scoreInference is the end-of-mission inference scoring: the final mask
// confusion, the declaration and retraction tallies, and time-to-detect
// for every dead sensor the engine caught at or after its death period.
// The last period's observe already scored the final mask.
func (k *kernel) scoreInference() {
	s := &k.infer
	s.Final = k.scored
	s.Sensors = k.pl.n
	s.Declarations = k.eng.Declarations()
	s.Retractions = k.eng.Retractions()
	s.InferredDead = k.eng.DeadCount()
	for i, alive := range k.alive {
		if alive {
			continue
		}
		s.TruthDead++
		if at := k.eng.DeclaredAt(i); at >= k.deaths[i] {
			s.TTDSum += at - k.deaths[i] + 1
			s.TTDCount++
		}
	}
	infer.CountFalseAlarms(s.Final.FP)
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
		Track:      append([]geom.Point(nil), k.tracks[0]...),
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
	if k.pl.cfg.Infer != nil {
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
