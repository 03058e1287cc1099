package sweep

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/groupdetect/gbd/internal/checkpoint"
	"github.com/groupdetect/gbd/internal/obs"
)

// BindFlags registers the sweep fault policy on fs and returns the
// Options the flags fill: -sweep-workers (defaulting to workers, the
// binary's own choice), -retries, -retry-backoff and -point-timeout. Check the parsed policy with
// Validate.
func BindFlags(fs *flag.FlagSet, workers int) *Options {
	o := &Options{}
	fs.IntVar(&o.Workers, "sweep-workers", workers, "concurrent sweep points (0 = all cores); output is identical at any setting")
	fs.IntVar(&o.Retries, "retries", 0, "re-attempts per failed sweep point (jittered exponential backoff)")
	fs.DurationVar(&o.Backoff, "retry-backoff", 100*time.Millisecond, "base backoff between sweep point retries")
	fs.DurationVar(&o.PointTimeout, "point-timeout", 0, "deadline per sweep-point attempt (0 = none)")
	return o
}

// Validate refuses a negative worker or retry count. Zero workers means
// GOMAXPROCS, as in Run.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("sweep-workers = %d must be >= 0 (0 = all cores)", o.Workers)
	}
	if o.Retries < 0 {
		return fmt.Errorf("retries = %d must be >= 0", o.Retries)
	}
	return nil
}

// Checkpoint is a campaign's checkpoint binding: the -checkpoint and
// -resume flags, the store they open, and the observer that hears about
// every failed point attempt. A nil *Checkpoint runs every point and
// reports nothing.
type Checkpoint struct {
	// Store records completed points; nil runs every point.
	Store *checkpoint.Store
	// OnPointError observes every failed attempt by its point key
	// ("fig9a/3"), 0-based attempt and error. It may be called
	// concurrently from several workers.
	OnPointError func(point string, attempt int, err error)

	path   string
	resume bool
}

// BindCheckpoint registers -checkpoint and -resume on fs.
func BindCheckpoint(fs *flag.FlagSet) *Checkpoint {
	c := &Checkpoint{}
	fs.StringVar(&c.path, "checkpoint", "", "record completed sweep points in this file for crash/interrupt recovery")
	fs.BoolVar(&c.resume, "resume", false, "resume from an existing -checkpoint file (refuses stale checkpoints)")
	return c
}

// Open binds the campaign to its checkpoint and its run session. The
// store is fingerprinted by binary, params (everything that shapes
// results, nothing that only shapes execution) and seed; it is fresh, or
// with -resume the existing file, refused when stale, and announced on
// stderr. Every failed point attempt is then printed on stderr and
// stamped into sess's manifest as the failed point. Defer Flush next.
func (c *Checkpoint) Open(sess *obs.Session, binary string, params any, seed int64) error {
	fp, err := checkpoint.Fingerprint(binary, params, seed)
	if err != nil {
		return err
	}
	if c.Store, err = checkpoint.Open(c.path, fp, c.resume); err != nil {
		return err
	}
	if c.resume {
		fmt.Fprintf(os.Stderr, "resuming: %d completed points restored from %s\n", c.Store.Len(), c.path)
	}
	c.OnPointError = func(point string, attempt int, err error) {
		sess.SetFailedPoint(point)
		fmt.Fprintf(os.Stderr, "point %s attempt %d failed: %v\n", point, attempt+1, err)
	}
	return nil
}

// Flush writes the store out, folding a failure into *err when the run
// itself succeeded.
func (c *Checkpoint) Flush(err *error) {
	if ferr := c.Store.Flush(); *err == nil {
		*err = ferr
	}
}

// store returns the checkpoint's store, nil for a nil binding.
func (c *Checkpoint) store() *checkpoint.Store {
	if c == nil {
		return nil
	}
	return c.Store
}
