package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/service"
)

func median(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	ys := slices.Clone(xs)
	slices.Sort(ys)
	return ys[(len(ys)-1)/2]
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := slices.Clone(xs)
	slices.Sort(ys)
	if len(ys)%2 == 1 {
		return ys[len(ys)/2]
	}
	return (ys[len(ys)/2-1] + ys[len(ys)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is num/den, and 0 when the base den is 0 (the layer did no work).
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// peakRSSMB is the process's peak resident set: client and in-process
// servers together.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// mallocs is the process-wide allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// statzDelta is what changed in the servers' /statz over a window, summed
// over nodes.
type statzDelta struct {
	requests, hits, coalesced, runs, batches int64
	mutations, delivered, dropped            int64
	cacheEvictions, fastEvictions            int64
	acquires, reuses, waits                  int64
	walAppends, walErrors                    int64
}

func sumStatz(sts []service.ServiceStats) statzDelta {
	var d statzDelta
	for _, s := range sts {
		d.requests += s.Requests
		d.hits += s.Hits
		d.coalesced += s.Coalesced
		d.runs += s.Runs
		d.batches += s.Batches
		d.mutations += s.Mutations
		d.delivered += s.Delivered
		d.dropped += s.Dropped
		d.cacheEvictions += s.Cache.Evictions
		d.fastEvictions += s.Fast.Evictions
		d.walAppends += s.WALAppends
		d.walErrors += s.WALErrors
		for _, p := range s.Pools {
			for _, ps := range []struct{ a, r, w int64 }{
				{p.Vertex.Acquires, p.Vertex.Reuses, p.Vertex.Waits},
				{p.PortWise.Acquires, p.PortWise.Reuses, p.PortWise.Waits},
			} {
				d.acquires += ps.a
				d.reuses += ps.r
				d.waits += ps.w
			}
		}
	}
	return d
}

// sub is d − o field by field. Pool counters are summed over the graphs
// cached at each snapshot; the workloads use fewer graphs than the graph
// cache holds, so none is evicted between the two.
func (d statzDelta) sub(o statzDelta) statzDelta {
	return statzDelta{
		requests: d.requests - o.requests, hits: d.hits - o.hits,
		coalesced: d.coalesced - o.coalesced, runs: d.runs - o.runs,
		batches: d.batches - o.batches, mutations: d.mutations - o.mutations,
		delivered: d.delivered - o.delivered, dropped: d.dropped - o.dropped,
		cacheEvictions: d.cacheEvictions - o.cacheEvictions,
		fastEvictions:  d.fastEvictions - o.fastEvictions,
		acquires:       d.acquires - o.acquires, reuses: d.reuses - o.reuses,
		waits: d.waits - o.waits, walAppends: d.walAppends - o.walAppends,
		walErrors: d.walErrors - o.walErrors,
	}
}

// misses are the requests that were neither hits nor coalesced: each
// submitted one flight to the batcher.
func (d statzDelta) misses() int64 { return d.requests - d.hits - d.coalesced }

// layerRatios are the per-layer metrics read from /statz deltas.
func (d statzDelta) layerRatios(m metrics) {
	m.set("service.hit_ratio", ratio(d.hits, d.requests))
	m.set("service.coalesce_ratio", ratio(d.coalesced, d.requests))
	m.set("service.runs_per_miss", ratio(d.runs, d.misses()))
	m.set("service.flights_per_batch", ratio(d.misses(), d.batches))
	m.set("service.cache_evictions_per_req", ratio(d.cacheEvictions, d.requests))
	m.set("service.fast_evictions_per_req", ratio(d.fastEvictions, d.requests))
	m.set("service.feed_delivered_ratio", ratio(d.delivered, d.mutations))
	m.set("service.feed_dropped", float64(d.dropped), "count")
	m.set("dist.pool_reuse_ratio", ratio(d.reuses, d.acquires))
	m.set("dist.pool_waits_per_run", ratio(d.waits, d.acquires))
}
