package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// peerHeader marks a request as already peer-forwarded. A replica that
// receives it answers locally no matter who owns the key, so a stale or
// split fleet view degrades to one extra hop instead of a forwarding
// loop.
const peerHeader = "X-Gbd-Peer"

// forward is how a miss replays at its key's owning replica: the op's
// request body, posted verbatim to the op's route, or — for a /v1/batch
// item — wrapped as a one-item batch. A nil op never forwards (GET
// /v1/experiments has no body to replay, so each replica computes it
// locally).
type forward struct {
	e     *endpoint
	body  []byte
	batch bool
}

// tryForward routes a cache miss to the replica owning key. It returns
// the owner's rendered bytes and its upstream provenance tag when the
// forward succeeded; ok=false means the caller must compute locally —
// sharding disabled, we own the key, the request is already a forward,
// or the owner is unreachable (it is marked dead and the key re-routes).
// Forward failures never surface to the client as errors: the fallback
// is always local computation. This is the only forward loop: the
// standalone handler and every /v1/batch item come through here.
func (s *Server) tryForward(r *http.Request, key string, fwd forward) (body []byte, upstream string, ok bool) {
	if s.peers == nil || fwd.e == nil || r.Header.Get(peerHeader) != "" {
		return nil, "", false
	}
	// One re-route: if the first owner fails its probe, the ring without it
	// names a successor; a second failure falls back to local compute.
	for attempt := 0; attempt < 2; attempt++ {
		member, url, self := s.peers.Route(key)
		if self {
			return nil, "", false
		}
		b, status, xcache, err := s.peerFetch(r, url, fwd)
		if err != nil {
			// Transport-level failure: the peer is unreachable. Open its
			// circuit and try the re-routed owner.
			peerForwardFails.Inc()
			if s.peers.OnFailure(member) {
				peerDeaths.Inc()
			}
			continue
		}
		s.peers.OnSuccess(member)
		// The peer is alive but its answer is not cacheable bytes — shed,
		// bad request, or for a batch an in-band error line (error=1 in
		// its aggregate header): do not mark it dead — owner-computes is
		// best-effort, compute here.
		if status != http.StatusOK || fwd.batch && (len(b) == 0 || !strings.HasSuffix(xcache, ",error=0")) {
			peerForwardFails.Inc()
			return nil, "", false
		}
		return b, upstreamTag(url), true
	}
	return nil, "", false
}

// peerFetch replays the request at a peer and returns the response body,
// status, and X-Cache provenance. The peer header suppresses further
// forwarding hops.
//
// The forward context derives from the inbound request context — a
// client hang-up cancels the forward — bounded by Config.PeerTimeout,
// which is what distinguishes "owner is stalled" from "computation is
// slow": a stalled owner burns one PeerTimeout, trips its breaker via
// the caller's OnFailure, and the request computes locally with most of
// its RequestTimeout still available.
func (s *Server) peerFetch(r *http.Request, url string, fwd forward) ([]byte, int, string, error) {
	path, payload := fwd.e.path, fwd.body
	if fwd.batch {
		b, err := json.Marshal(BatchRequest{Items: []BatchItem{{Op: fwd.e.name, Request: fwd.body}}})
		if err != nil {
			return nil, 0, "", fmt.Errorf("serve: marshal forward item: %w", err)
		}
		path, payload = "/v1/batch", b
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+path, bytes.NewReader(payload))
	if err != nil {
		return nil, 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(peerHeader, "1")
	resp, err := s.peerHC.Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, "", err
	}
	return b, resp.StatusCode, resp.Header.Get("X-Cache"), nil
}

// upstreamTag compresses a peer URL into the X-Cache provenance suffix:
// "forward-10.0.0.2:8080" rather than the full scheme-qualified URL.
func upstreamTag(url string) string {
	tag := strings.TrimPrefix(url, "http://")
	tag = strings.TrimPrefix(tag, "https://")
	return strings.TrimSuffix(tag, "/")
}
