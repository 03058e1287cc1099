package serve

import "github.com/groupdetect/gbd/internal/obs"

// Metric handles are resolved once at package init (DESIGN.md §9 hot-path
// contract). Cache lookups obey hits + misses + forwards == lookups
// exactly: every lookup is classified at its call site as exactly one of
// the three via the lookup* helpers below (a forward is a local miss
// satisfied by the key's owning replica), so the fleet-correctness tests
// can assert the identity at quiescence. dedup counts requests that
// joined an identical in-flight computation instead of recomputing (they
// are also cache misses — the identity still holds).
var (
	serveRequests = obs.Default.Counter("serve.requests")
	serveErrors   = obs.Default.Counter("serve.errors")

	cacheLookups   = obs.Default.Counter("serve.cache.lookups")
	cacheHits      = obs.Default.Counter("serve.cache.hits")
	cacheMisses    = obs.Default.Counter("serve.cache.misses")
	cacheEvictions = obs.Default.Counter("serve.cache.evictions")
	cacheEntries   = obs.Default.Gauge("serve.cache.entries")

	dedupFollowers = obs.Default.Counter("serve.dedup.followers")

	admitted         = obs.Default.Counter("serve.admitted")
	rejectedQueue    = obs.Default.Counter("serve.rejected.queue")
	rejectedDeadline = obs.Default.Counter("serve.rejected.deadline")
	queueDepth       = obs.Default.Gauge("serve.queue.depth")
	queueDepthMax    = obs.Default.Gauge("serve.queue.depth.max")
	inflight         = obs.Default.Gauge("serve.inflight")
	inflightMax      = obs.Default.Gauge("serve.inflight.max")

	serveLatency = obs.Default.Histogram("serve.latency.seconds", obs.SecondsBuckets())

	sweepStreams    = obs.Default.Counter("serve.sweep.streams")
	sweepRows       = obs.Default.Counter("serve.sweep.rows")
	sweepHeartbeats = obs.Default.Counter("serve.sweep.heartbeats")

	batchRequests = obs.Default.Counter("serve.batch.requests")
	batchItems    = obs.Default.Counter("serve.batch.items")

	peerForwards     = obs.Default.Counter("serve.peer.forwards")
	peerForwardFails = obs.Default.Counter("serve.peer.forward.failures")
	peerDeaths       = obs.Default.Counter("serve.peer.deaths")
)

// lookupHit / lookupMiss / lookupForward classify one cache lookup.
// Every request, batch item and sweep row that reaches the cache is
// classified by exactly one of these (a raw-body alias miss by the
// canonical lookup that follows it), which is what keeps
// hits + misses + forwards == lookups an identity rather than an
// approximation.
func lookupHit()     { cacheLookups.Inc(); cacheHits.Inc() }
func lookupMiss()    { cacheLookups.Inc(); cacheMisses.Inc() }
func lookupForward() { cacheLookups.Inc(); peerForwards.Inc() }
