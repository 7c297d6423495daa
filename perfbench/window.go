package main

import (
	"math"
	"slices"
	"time"
)

// subWindows splits a timed window into equal parts. req_per_s and p50_ms
// are medians over the parts, so a stall of the machine confined to fewer
// than half of them barely moves the run's figure; p99_ms needs every sample
// and is taken over the whole window.
const subWindows = 10

// subWindow is the part of a window of length d that elapsed time t falls
// in; completions after the deadline count in the last part.
func subWindow(t, d time.Duration) int {
	return min(int(t*subWindows/d), subWindows-1)
}

// window records the latency of every successful request of a timed
// window, by the sub-window it completed in. Latencies are nanoseconds in
// fixed-size chunks: no slice is copied to grow, so the client's own memory,
// which peak_rss_mb includes, grows smoothly with the request count.
type window struct {
	start time.Time
	d     time.Duration
	subs  [subWindows][][]uint32
}

const chunk = 1 << 14

func newWindow(start time.Time, d time.Duration) *window {
	return &window{start: start, d: d}
}

// add records one successful request that took lat and has just completed.
func (w *window) add(lat time.Duration) {
	k := subWindow(time.Since(w.start), w.d)
	cs := w.subs[k]
	if len(cs) == 0 || len(cs[len(cs)-1]) == chunk {
		cs = append(cs, make([]uint32, 0, chunk))
		w.subs[k] = cs
	}
	cs[len(cs)-1] = append(cs[len(cs)-1], uint32(min(lat, math.MaxUint32)))
}

// merge adds o's samples to w; both must cover the same window.
func (w *window) merge(o *window) {
	for k := range w.subs {
		w.subs[k] = append(w.subs[k], o.subs[k]...)
	}
}

// windowStats is what the end-to-end metrics read from a window.
type windowStats struct {
	latencies
	// rate is the median over sub-windows of successes per second; p50 is
	// the median over sub-windows of the sub-window medians.
	rate float64
}

func (w *window) stats() windowStats {
	var all []time.Duration
	rates := make([]float64, subWindows)
	p50s := make([]time.Duration, 0, subWindows)
	for k, cs := range w.subs {
		var sub []time.Duration
		for _, c := range cs {
			for _, ns := range c {
				sub = append(sub, time.Duration(ns))
			}
		}
		rates[k] = float64(len(sub)) / (w.d / subWindows).Seconds()
		if len(sub) > 0 {
			p50s = append(p50s, summarize(sub).p50)
		}
		all = append(all, sub...)
	}
	st := windowStats{latencies: summarize(all), rate: medianF(rates)}
	st.p50 = median(p50s)
	return st
}

// latencies summarises one sample of request times.
type latencies struct {
	n        int
	p50, p99 time.Duration
	beyond99 int // samples strictly above the p99 rank
}

// summarize sorts xs and takes nearest-rank percentiles.
func summarize(xs []time.Duration) latencies {
	if len(xs) == 0 {
		return latencies{}
	}
	slices.Sort(xs)
	rank := func(q float64) int { return max(1, int(math.Ceil(q*float64(len(xs))))) }
	r99 := rank(0.99)
	return latencies{n: len(xs), p50: xs[rank(0.5)-1], p99: xs[r99-1], beyond99: len(xs) - r99}
}
