package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/groupdetect/gbd/internal/serve"
)

// replicas is the fleet size: the smallest fleet in which consistent-hash
// sharding forwards misses to a peer.
const replicas = 2

// fleet is a sharded serving fleet of replicas in this process, each
// behind its own loopback listener, plus the benchmark's client for it.
type fleet struct {
	urls    []string
	servers []*http.Server
	serving sync.WaitGroup
	client  *http.Client
	// trace is nil during set-up, so spans cover only the timed phase.
	trace atomic.Pointer[tracer]
}

// startFleet starts the replicas with base as their configuration and a
// client that opens at most conns connections to each replica.
func startFleet(base serve.Config, conns int) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, replicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		cfg := base
		cfg.Peers, cfg.Self = f.urls, f.urls[i]
		if err := cfg.ValidatePeers(); err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		srv := &http.Server{Handler: f.wrap(i, serve.New(cfg).Handler()), ReadHeaderTimeout: 10 * time.Second}
		f.servers = append(f.servers, srv)
		f.serving.Add(1)
		go func(ln net.Listener) {
			defer f.serving.Done()
			srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
		}(ln)
	}
	f.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return f, nil
}

// close drains and stops every replica and waits for them to exit.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	for _, s := range f.servers {
		s.Shutdown(ctx)
	}
	f.serving.Wait()
}

// wrap records a span around each call of a replica's Handler with the
// path, the X-Cache outcome and whether a peer forwarded the request.
func (f *fleet) wrap(replica int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := f.trace.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		xcache := w.Header().Get("X-Cache")
		peer := r.Header.Get("X-Gbd-Peer") != ""
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		outcome := handlerOutcome(r.URL.Path, xcache, peer)
		keys := []string{"handler." + outcome}
		if !peer {
			keys = append(keys, "handler", "handler."+strings.TrimPrefix(r.URL.Path, "/v1/"))
		}
		tr.record(tr.id(), parent, "serve.Handler",
			fmt.Sprintf("replica=%d path=%s x-cache=%s peer=%t", replica, r.URL.Path, xcache, peer), t0, t1, keys...)
	})
}

// handlerOutcome names what a handler call did: answered a peer's
// forward, a batch, or a single request as a local hit, a local compute
// ("miss", including singleflight followers) or a forward to the owner.
func handlerOutcome(path, xcache string, peer bool) string {
	switch {
	case peer:
		return "peer"
	case path == "/v1/batch":
		return "batch"
	case xcache == "hit":
		return "hit"
	case strings.HasPrefix(xcache, "forward-"):
		return "forward"
	default:
		return "miss"
	}
}

// item is one API call body: a standalone request or a batch item.
type item struct {
	op   string // analyze, latency, design, simulate or place
	body []byte
}

// request is one generated arrival.
type request struct {
	path     string
	body     []byte
	items    []item  // the batch's items, for /v1/batch
	wantProb float64 // when non-zero, the exact detection_prob expected
	recheck  *scenarioParams
}

func single(it item) *request { return &request{path: "/v1/" + it.op, body: it.body} }

// batch builds a /v1/batch request whose items carry the exact bytes of
// the standalone bodies, so each answer line can be compared with the
// standalone answer.
func batch(items []item) *request {
	var b bytes.Buffer
	b.WriteString(`{"items":[`)
	for i, it := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"op":%q,"request":%s}`, it.op, it.body)
	}
	b.WriteString("]}")
	return &request{path: "/v1/batch", body: b.Bytes(), items: append([]item(nil), items...)}
}

// do posts rq to a replica and returns the body of a 200 answer.
func (f *fleet) do(ctx context.Context, replica int, rq *request) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.urls[replica]+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	tr := f.trace.Load()
	id := tr.id()
	if tr != nil {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	t0 := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.record(id, 0, "http.client", rq.path, t0, time.Now(), "client")
	if err != nil {
		return nil, fmt.Errorf("%s: read body: %w", rq.path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", rq.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// errMismatch marks an answer whose bytes differ from the first answer
// to the same body.
var errMismatch = errors.New("answer differs from the first answer to the same body")

// identity checks that every repeat of a body, on either replica, in a
// batch or alone, gets the same bytes as its first answer.
type identity struct {
	mu         sync.Mutex
	first      map[string][sha256.Size]byte
	compared   int
	mismatches int
	example    string
}

func newIdentity() *identity { return &identity{first: make(map[string][sha256.Size]byte)} }

func (c *identity) observe(key string, answer []byte) error {
	sum := sha256.Sum256(answer)
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, seen := c.first[key]
	if !seen {
		c.first[key] = sum
		return nil
	}
	c.compared++
	if prev != sum {
		c.mismatches++
		if c.example == "" {
			c.example = key
		}
		return fmt.Errorf("%s: %w", key, errMismatch)
	}
	return nil
}

// check verifies one answer: its byte identity or, for a batch, that of
// every line against the standalone answer to its item; in-band batch
// errors fail the request.
func (c *identity) check(rq *request, body []byte) error {
	if rq.items == nil {
		return c.observe(rq.path+"|"+string(rq.body), body)
	}
	lines := bytes.SplitAfter(body, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	if len(lines) != len(rq.items) {
		return fmt.Errorf("batch: %d answer lines for %d items", len(lines), len(rq.items))
	}
	for i, it := range rq.items {
		if bytes.HasPrefix(lines[i], []byte(`{"error"`)) {
			return fmt.Errorf("batch item %d (%s): %s", i, it.op, bytes.TrimSpace(lines[i]))
		}
		if err := c.observe("/v1/"+it.op+"|"+string(it.body), lines[i]); err != nil {
			return err
		}
	}
	return nil
}
