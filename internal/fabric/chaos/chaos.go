// Package chaos is the fabric's fault-injection harness: an in-process
// reverse proxy that sits between the coordinator and a real gbd-server
// worker and injects the failure modes the fabric claims to survive —
// dropped connections, 503 bursts, NDJSON streams truncated mid-row, and
// long stalls with the upstream still healthy.
//
// Faults follow a schedule that is a pure function of (seed, request
// number), so a chaos run is reproducible: the same seed injects the same
// fault at the same request ordinal every time. The schedule is what the
// chaos tests and the CI chaos job pin: under any seed, the coordinator's
// merged output must stay byte-identical to a fault-free single-machine
// run — the faults may change how the campaign runs, never what it
// computes.
package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// Config is one proxy's fault schedule. Each *Every field injects its
// fault on every k-th request (1 = every request, 0 = never), phase-
// shifted by the seed so two proxies with the same periods but different
// seeds fault different requests. When several faults land on the same
// request, the first of drop, 503, truncate, stall wins.
type Config struct {
	// Seed phase-shifts the schedule and picks the mid-stream byte offsets.
	Seed int64
	// Target is the upstream worker base URL (e.g. a httptest.Server.URL).
	Target string
	// DropEvery kills the connection before the request reaches upstream.
	DropEvery int
	// Err503Every answers 503 without contacting upstream.
	Err503Every int
	// TruncateEvery forwards the upstream stream but cuts the connection at
	// a seed-chosen byte offset — deliberately mid-row.
	TruncateEvery int
	// StallEvery freezes the stream for Stall at a seed-chosen offset, then
	// resumes; the upstream worker stays healthy throughout.
	StallEvery int
	// Stall is the freeze duration for StallEvery (default 2s).
	Stall time.Duration
}

// Counts reports how many of each fault a proxy has injected.
type Counts struct {
	Requests  int64 `json:"requests"`
	Drops     int64 `json:"drops"`
	Errs503   int64 `json:"errs_503"`
	Truncates int64 `json:"truncates"`
	Stalls    int64 `json:"stalls"`
	Forwarded int64 `json:"forwarded"`
}

type faultKind int

const (
	faultNone faultKind = iota
	faultDrop
	fault503
	faultTruncate
	faultStall
)

// Proxy is a running chaos proxy in front of one worker.
type Proxy struct {
	cfg Config
	ln  net.Listener
	srv *http.Server
	hc  *http.Client

	reqs, drops, errs, truncs, stalls, fwd atomic.Int64
}

// Start listens on an ephemeral loopback port and begins proxying.
func Start(cfg Config) (*Proxy, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("chaos: Target is required")
	}
	if cfg.Stall <= 0 {
		cfg.Stall = 2 * time.Second
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &Proxy{cfg: cfg, ln: ln, hc: &http.Client{}}
	p.srv = &http.Server{Handler: http.HandlerFunc(p.handle)}
	go p.srv.Serve(ln)
	return p, nil
}

// URL is the proxy's base URL; hand it to the coordinator as the worker
// address.
func (p *Proxy) URL() string { return "http://" + p.ln.Addr().String() }

// Counts snapshots the injected-fault tallies.
func (p *Proxy) Counts() Counts {
	return Counts{
		Requests:  p.reqs.Load(),
		Drops:     p.drops.Load(),
		Errs503:   p.errs.Load(),
		Truncates: p.truncs.Load(),
		Stalls:    p.stalls.Load(),
		Forwarded: p.fwd.Load(),
	}
}

// Close stops the listener and any in-flight proxied streams.
func (p *Proxy) Close() error { return p.srv.Close() }

// mix hashes (seed, n, salt) into a uniform-ish uint64 (splitmix64-style,
// stateless — the whole schedule is a pure function of its inputs).
func mix(seed int64, n int64, salt uint64) uint64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(n)*0xBF58476D1CE4E5B9 + salt
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// plan decides request n's fault and, for mid-stream faults, the byte
// offset at which to inject it. Offsets land in [50, 150) so they fall
// inside the first row of a sweep stream — the torn-mid-row case a plain
// HTTP error can't exercise.
func (p *Proxy) plan(n int64) (faultKind, int64) {
	hits := func(every int, salt uint64) bool {
		if every <= 0 {
			return false
		}
		phase := int64(mix(p.cfg.Seed, 0, salt) % uint64(every))
		return (n+phase)%int64(every) == 0
	}
	switch {
	case hits(p.cfg.DropEvery, 0x01):
		return faultDrop, 0
	case hits(p.cfg.Err503Every, 0x02):
		return fault503, 0
	case hits(p.cfg.TruncateEvery, 0x03):
		return faultTruncate, int64(50 + mix(p.cfg.Seed, n, 0x13)%100)
	case hits(p.cfg.StallEvery, 0x04):
		return faultStall, int64(50 + mix(p.cfg.Seed, n, 0x14)%100)
	}
	return faultNone, 0
}

func (p *Proxy) handle(w http.ResponseWriter, r *http.Request) {
	n := p.reqs.Add(1)
	kind, cut := p.plan(n)
	switch kind {
	case faultDrop:
		p.drops.Add(1)
		// Abort the handler without a response: the client sees the
		// connection reset, as if the worker process died.
		panic(http.ErrAbortHandler)
	case fault503:
		p.errs.Add(1)
		http.Error(w, "chaos: injected 503", http.StatusServiceUnavailable)
		return
	}

	body, err := io.ReadAll(r.Body)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	ureq, err := http.NewRequestWithContext(r.Context(), r.Method, p.cfg.Target+r.URL.String(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, "chaos: build upstream request", http.StatusBadGateway)
		return
	}
	ureq.Header = r.Header.Clone()
	resp, err := p.hc.Do(ureq)
	if err != nil {
		http.Error(w, "chaos: upstream unreachable: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		// No Content-Length: the relay may be cut mid-body, and the clean
		// forward is counted after the last byte is copied, so the client
		// must see the end of the body only once the handler has returned.
		if k == "Content-Length" {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Stream upstream bytes through, injecting the mid-stream fault when
	// the cumulative offset crosses cut.
	var written int64
	stalled := false
	buf := make([]byte, 4<<10)
	for {
		m, rerr := resp.Body.Read(buf)
		if m > 0 {
			chunk := buf[:m]
			if kind == faultTruncate && written+int64(m) > cut {
				w.Write(chunk[:cut-written])
				flush()
				p.truncs.Add(1)
				// Cut the connection mid-row: the coordinator's client must
				// classify the partial line as a transient transport error.
				panic(http.ErrAbortHandler)
			}
			if kind == faultStall && !stalled && written+int64(m) > cut {
				head := chunk[:cut-written]
				w.Write(head)
				flush()
				p.stalls.Add(1)
				stalled = true
				select {
				case <-time.After(p.cfg.Stall):
				case <-r.Context().Done():
					// The client gave up during the stall (watchdog fired).
					return
				}
				chunk = chunk[len(head):]
			}
			if _, werr := w.Write(chunk); werr != nil {
				return
			}
			written += int64(m)
			flush()
		}
		if rerr != nil {
			break
		}
	}
	p.fwd.Add(1)
}
