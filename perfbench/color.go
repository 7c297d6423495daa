package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/service"
)

// colorBench is a fixture for the three /v1/color workloads (hit, miss,
// gateway): where the clients send, what they send, and how the responses
// are checked.
type colorBench struct {
	node    *node         // hit, miss
	fleet   *gatewayFleet // gateway
	addr    string        // where the clients connect
	src     colorSource
	request func(reqID) service.Request
	pol     samplePolicy
	// identical says which sampled bodies must equal a direct
	// Service.Handle of the same request byte for byte.
	identical func(sampled) bool
}

// clients is the closed-loop client count of the color workloads. The load
// loop and the miss seed sequences work for any count up to nproc; on the
// 2-CPU machine the benchmark was sized on, two clients saturate both CPUs
// and the run-to-run spread of req_per_s and p50_ms rose to 14-16% on miss
// and gateway, against 3-5% with one client.
const clients = 1

func (b *colorBench) close() {
	if b.node != nil {
		b.node.close()
	}
	if b.fleet != nil {
		b.fleet.close()
	}
}

func (b *colorBench) servers() []*node {
	if b.fleet != nil {
		return b.fleet.nodes
	}
	return []*node{b.node}
}

func (b *colorBench) statz(c *http.Client) (statzDelta, error) {
	var sts []service.ServiceStats
	for _, n := range b.servers() {
		st, err := n.stats(c)
		if err != nil {
			return statzDelta{}, err
		}
		sts = append(sts, st)
	}
	return sumStatz(sts), nil
}

// warm sends each request once and requires a 200.
func warm(addr string, wires [][]byte) error {
	rc := newRawClient(addr)
	defer rc.close()
	for _, w := range wires {
		r, err := rc.do(w)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("warm-up: status %d: %s", r.status, r.body)
		}
	}
	return nil
}

// hitSetup starts one colord (or, with gateway, a colorgate in front of two)
// and serves the 40 hit keys once, so the window replays warm entries.
func hitSetup(seed int64, gateway bool) func() (bench, error) {
	reqs := hitRequests(seed)
	return func() (bench, error) {
		b := &colorBench{
			request:   func(id reqID) service.Request { return reqs[id.tmpl] },
			pol:       samplePolicy{fixed: len(reqs), every: 4096},
			identical: func(sampled) bool { return true },
		}
		var err error
		if gateway {
			b.fleet, err = startGateway(2)
			if err == nil {
				b.addr = b.fleet.addr
			}
		} else {
			b.node, err = startNode(serverConfig())
			if err == nil {
				b.addr = b.node.addr
			}
		}
		if err != nil {
			return nil, err
		}
		wires := make([][]byte, len(reqs))
		for i, r := range reqs {
			wires[i] = wireRequest(b.addr, "/v1/color", mustJSON(r))
		}
		// Client c starts half-way round the key ring from client c-1.
		b.src = func(c, i int) ([]byte, reqID) {
			k := (i + c*len(wires)/clients) % len(wires)
			return wires[k], reqID{tmpl: k}
		}
		if err := warm(b.addr, wires); err != nil {
			b.close()
			return nil, err
		}
		return b, nil
	}
}

// missSetup starts one colord and runs every miss template at two warm-up
// seeds, so the graph cache and the runner pools are built before the
// window, while the result cache holds none of the window's keys.
func missSetup(seed int64) func() (bench, error) {
	tmpls := make([]bodyTemplate, len(missTemplates))
	for i, r := range missTemplates {
		tmpls[i] = newBodyTemplate(r)
	}
	return func() (bench, error) {
		n, err := startNode(serverConfig())
		if err != nil {
			return nil, err
		}
		b := &colorBench{
			node:    n,
			addr:    n.addr,
			request: func(id reqID) service.Request { return tmpls[id.tmpl].request(id.seed) },
			// Four passes over the templates per client are the fixed set.
			pol:       samplePolicy{fixed: 4 * len(tmpls), every: 16},
			identical: func(s sampled) bool { return s.fixed },
		}
		b.src = func(c, i int) ([]byte, reqID) {
			t := (i + c*len(tmpls)/clients) % len(tmpls)
			s := missSeed(seed, c, i)
			return wireRequest(b.addr, "/v1/color", tmpls[t].body(s)), reqID{tmpl: t, seed: s}
		}
		var wires [][]byte
		for k := 0; k < 2; k++ {
			for _, t := range tmpls {
				wires = append(wires, wireRequest(b.addr, "/v1/color", t.body(warmSeed(seed, k))))
			}
		}
		if err := warm(b.addr, wires); err != nil {
			b.close()
			return nil, err
		}
		return b, nil
	}
}

// run measures the window and then verifies the sampled responses.
func (b *colorBench) run(d time.Duration, tr *tracer, rep *report) error {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	before, err := b.statz(hc)
	if err != nil {
		return err
	}
	results, elapsed := runColorLoad(b.addr, clients, d, b.src, b.pol, tr)
	rep.rssMB = peakRSSMB()
	after, err := b.statz(hc)
	if err != nil {
		return err
	}
	rep.statz = after.sub(before)
	rep.elapsed = elapsed
	win := results[0].win
	for _, r := range results {
		rep.attempted += r.attempted
		rep.failed += r.failed
		rep.ok += r.ok
		if r.win != win {
			win.merge(r.win)
		}
	}
	rep.lat = win.stats()

	// Off the clock: every sampled body must verify.
	v := newVerifier()
	defer v.close()
	var used, fixed int
	for _, r := range results {
		for _, s := range r.samples {
			n, err := v.color(b.request(s.id), s.body, b.identical(s))
			if err != nil {
				rep.fail(err)
				continue
			}
			rep.verified++
			if s.fixed {
				used += n
				fixed++
			}
		}
	}
	rep.colorsUsed = float64(used) / float64(max(fixed, 1))
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("perfbench: " + err.Error())
	}
	return b
}
