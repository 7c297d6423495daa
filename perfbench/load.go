package main

import (
	"sync"
	"time"
)

// colorSource yields a client's i-th request: the prebuilt wire bytes and
// the request's identity (its template index and algorithm seed), which
// verification uses to rebuild what the response must be.
type colorSource func(client, i int) (wire []byte, id reqID)

type reqID struct {
	tmpl int
	seed int64
}

// sampled is a response kept for off-clock verification.
type sampled struct {
	id   reqID
	body []byte
	// fixed marks members of the deterministic set colors_used averages
	// over: the same requests whatever the run's throughput.
	fixed bool
}

// clientResult is one closed-loop client's tally over the timed window.
type clientResult struct {
	attempted, failed, ok int64
	win                   *window
	samples               []sampled
	spans                 []span
}

// samplePolicy picks responses for verification by request index: the first
// fixed requests of each client form the fixed set, and every every-th
// request after it is checked too.
type samplePolicy struct{ fixed, every int }

func (p samplePolicy) pick(i int) (keep, fixed bool) {
	if i < p.fixed {
		return true, true
	}
	return p.every > 0 && i%p.every == 0, false
}

// traceEvery samples the window's request spans in a traced run: every
// 16th request of each client, which bounds the spans a 60k req/s window
// keeps in memory and writes out.
const traceEvery = 16

// runColorLoad drives clients closed-loop against addr for d: each client
// sends its next request only after the previous response arrived. With a
// tracer, every traceEvery-th request is recorded as a span.
func runColorLoad(addr string, clients int, d time.Duration, src colorSource, pol samplePolicy, tr *tracer) ([]clientResult, time.Duration) {
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.win = newWindow(start, d)
			rc := newRawClient(addr)
			defer rc.close()
			for i := 0; time.Now().Before(deadline); i++ {
				wire, id := src(c, i)
				res.attempted++
				traced := tr != nil && i%traceEvery == 0
				var sp span
				if traced {
					sp = span{ID: tr.id(), Name: "request.color", Start: tr.now()}
					sp.Req = sp.ID
				}
				t0 := time.Now()
				r, err := rc.do(wire)
				lat := time.Since(t0)
				if traced {
					sp.End = tr.now()
					res.spans = append(res.spans, sp)
				}
				if err != nil || r.status != 200 {
					res.failed++
					continue
				}
				res.ok++
				res.win.add(lat)
				if keep, fixed := pol.pick(i); keep {
					res.samples = append(res.samples, sampled{id: id, body: append([]byte(nil), r.body...), fixed: fixed})
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := range results {
		tr.add(results[i].spans...)
		results[i].spans = nil
	}
	return results, elapsed
}
