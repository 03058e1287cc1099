package obs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sync"
	"time"
)

// Flags holds the standard observability flag values every gbd binary
// exposes. Wire them with AddFlags, then bracket the run with Start and a
// deferred Finish.
type Flags struct {
	// MetricsOut is the run-manifest destination (empty = off).
	MetricsOut string
	// Pprof is a path prefix: Start writes CPU samples to
	// <prefix>.cpu.pprof and Close writes the heap to <prefix>.heap.pprof
	// (empty = off).
	Pprof string
	// Trace is the runtime execution-trace destination (empty = off).
	Trace string
}

// AddFlags registers -metrics-out, -pprof and -trace on fs and returns the
// value holder.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write a JSON run manifest (params, build, timings, metrics) to this file")
	fs.StringVar(&f.Pprof, "pprof", "", "profile path prefix: writes <prefix>.cpu.pprof and <prefix>.heap.pprof")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
	return f
}

// Session is one observed run of a binary: profiles and tracing started,
// the manifest stamped. Finish (or Close) is safe to call exactly once.
type Session struct {
	flags    *Flags
	manifest *Manifest
	cpuFile  *os.File
	traceOut *os.File

	// mu guards the outcome fields, which the signal handler goroutine and
	// RecordOutcome may touch concurrently.
	mu          sync.Mutex
	status      string
	errStr      string
	failedPoint string
	interrupted bool
}

// Start begins the observed run: starts the CPU profile and execution
// trace when requested and stamps the manifest's static fields. binary is
// the command name, args the raw CLI arguments (recorded for
// reproducibility).
func (f *Flags) Start(binary string, args []string) (*Session, error) {
	s := &Session{flags: f, manifest: newManifest(binary, args)}
	if f.Pprof != "" {
		cf, err := os.Create(f.Pprof + ".cpu.pprof")
		if err != nil {
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		s.cpuFile = cf
	}
	if f.Trace != "" {
		tf, err := os.Create(f.Trace)
		if err != nil {
			s.stopProfiles()
			return nil, fmt.Errorf("obs: trace: %w", err)
		}
		if err := trace.Start(tf); err != nil {
			tf.Close()
			s.stopProfiles()
			return nil, fmt.Errorf("obs: trace: %w", err)
		}
		s.traceOut = tf
	}
	return s, nil
}

// SetParams records the run's configuration in the manifest (any
// JSON-serializable value).
func (s *Session) SetParams(params any) { s.manifest.Params = params }

// SetSeed records the campaign seed in the manifest.
func (s *Session) SetSeed(seed int64) { s.manifest.Seed = seed }

// SetFailedPoint records which sweep point the run failed on, for the
// manifest's failed_point field.
func (s *Session) SetFailedPoint(point string) {
	s.mu.Lock()
	s.failedPoint = point
	s.mu.Unlock()
}

// RecordOutcome classifies how the run ended for the manifest status:
// nil → ok, a cancellation error (or any error after a signal marked the
// session interrupted) → interrupted, anything else → failed. Call it with
// the run's final error before Close; without a call the status defaults
// to ok.
func (s *Session) RecordOutcome(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		if s.status == "" {
			s.status = StatusOK
		}
		return
	}
	s.errStr = err.Error()
	if s.interrupted || errors.Is(err, context.Canceled) {
		s.status = StatusInterrupted
	} else {
		s.status = StatusFailed
	}
}

// markInterrupted flags the session as signal-interrupted: the eventual
// status becomes interrupted regardless of what error the unwinding run
// reports.
func (s *Session) markInterrupted(sig string) {
	s.mu.Lock()
	s.interrupted = true
	s.status = StatusInterrupted
	if s.errStr == "" {
		s.errStr = "interrupted by " + sig
	}
	s.mu.Unlock()
}

func (s *Session) stopProfiles() {
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		s.cpuFile.Close()
		s.cpuFile = nil
	}
	if s.traceOut != nil {
		trace.Stop()
		s.traceOut.Close()
		s.traceOut = nil
	}
}

// Finish ends the run with its final error: RecordOutcome(*err) sets the
// manifest status, then Close writes the manifest, and a Close failure is
// folded into *err when the run itself succeeded. Defer it right after
// Start, so it runs after every later deferred step (checkpoint flushes
// included) has settled *err.
func (s *Session) Finish(err *error) {
	s.RecordOutcome(*err)
	if cerr := s.Close(); *err == nil {
		*err = cerr
	}
}

// Close finalizes the run: stops the CPU profile and trace, writes the
// heap profile, stamps timings, snapshots the Default registry, and writes
// the manifest when -metrics-out was given. It runs even after run errors
// so partial campaigns still leave a record; the first error encountered
// is returned.
func (s *Session) Close() error {
	s.stopProfiles()
	var firstErr error
	if s.flags.Pprof != "" {
		hf, err := os.Create(s.flags.Pprof + ".heap.pprof")
		if err == nil {
			runtime.GC() // publish up-to-date allocation stats
			err = pprof.WriteHeapProfile(hf)
			if cerr := hf.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("obs: heap profile: %w", err)
		}
	}
	if s.flags.MetricsOut != "" {
		m := s.manifest
		m.WallSeconds = time.Since(m.Start).Seconds()
		m.CPUSeconds = cpuSeconds()
		s.mu.Lock()
		m.Status = s.status
		if m.Status == "" {
			m.Status = StatusOK
		}
		m.Error = s.errStr
		m.FailedPoint = s.failedPoint
		s.mu.Unlock()
		m.Metrics = Default.Snapshot()
		if err := m.WriteFile(s.flags.MetricsOut); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
