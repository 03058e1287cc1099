package obs

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// SignalContext derives a context that is cancelled on SIGINT or SIGTERM,
// marking the session interrupted first so the manifest written by Close
// records status "interrupted" rather than "failed". The run keeps
// unwinding cooperatively after the first signal — flushing checkpoints
// and the manifest on the way out — while a second signal force-exits with
// status 130 for the case where the cooperative path is stuck.
//
// The returned cancel releases the signal registration and the context;
// defer it next to Session.Finish.
func (s *Session) SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		s.markInterrupted(sig.String())
		fmt.Fprintf(os.Stderr, "received %v: stopping after current points (signal again to force quit)\n", sig)
		cancel()
		if sig, ok := <-ch; ok {
			fmt.Fprintf(os.Stderr, "received %v again: forcing exit\n", sig)
			os.Exit(130)
		}
	}()
	var once sync.Once
	return ctx, func() {
		once.Do(func() {
			signal.Stop(ch)
			close(ch)
		})
		cancel()
	}
}
