package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/algreg"
	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/wal"
)

// The per-layer pass of a traced run. Each probe sends one request to an
// in-process colord over HTTP under a request span, then replays the work
// that request caused inside the server through the same public functions,
// each call under a span whose parent is the request's span (or the
// replayed call that contains it). The pass is the same on every workload;
// the /statz ratios of the workload's own window are added by the caller.

// Probe counts: enough samples for stable medians in a few seconds.
const (
	hitReps       = 25  // passes over the 40 hit keys
	hitLoop       = 200 // HandleRaw calls per hit span
	missProbes    = 6   // replay seeds per miss template
	resolveLoop   = 1000
	buildReps     = 5
	layerChurnOps = 2048
	routeLoop     = 10000
	hopReps       = 25
)

func layers(seed int64, tmp string, tr *tracer, m metrics, rep *report) error {
	for _, f := range []func(int64, *tracer, metrics, *report) error{hitLayers, missLayers, clusterLayers} {
		if err := f(seed, tr, m, rep); err != nil {
			return err
		}
	}
	return churnLayers(seed, tmp, tr, m, rep)
}

// probe sends one prebuilt request under a request span. A transport error
// or a non-200 counts as a failed operation.
func probe(tr *tracer, rc *rawClient, name string, parent int64, wire []byte, rep *report) (span, rawResponse, bool) {
	var r rawResponse
	var err error
	rep.attempted++
	s := tr.timed(name, parent, 0, 1, func() { r, err = rc.do(wire) })
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", name, r.status, r.body)
	}
	if err != nil {
		rep.fail(err)
		return s, r, false
	}
	return s, r, true
}

// hitLayers times Service.HandleRaw on repeated bodies (the fast lane) and
// prices the HTTP stack as the round trip minus that time.
func hitLayers(seed int64, tr *tracer, m metrics, rep *report) error {
	n, err := startNode(serverConfig())
	if err != nil {
		return err
	}
	defer n.close()
	reqs := hitRequests(seed)
	bodies := make([][]byte, len(reqs))
	wires := make([][]byte, len(reqs))
	for i, r := range reqs {
		bodies[i] = mustJSON(r)
		wires[i] = wireRequest(n.addr, "/v1/color", bodies[i])
	}
	if err := warm(n.addr, wires); err != nil {
		return err
	}
	rc := newRawClient(n.addr)
	defer rc.close()
	var rtts, perCall []time.Duration
	for k := 0; k < hitReps; k++ {
		for i := range wires {
			sp, r, ok := probe(tr, rc, "request.color", 0, wires[i], rep)
			if !ok {
				continue
			}
			want := append([]byte(nil), r.body...)
			var got []byte
			var outcome service.Outcome
			hs := tr.timed("service.HandleRaw", sp.ID, sp.Req, hitLoop, func() {
				for j := 0; j < hitLoop; j++ {
					got, _, outcome, err = n.svc.HandleRaw(bodies[i])
				}
			})
			if err != nil || outcome != service.Hit || !bytes.Equal(got, want) {
				rep.fail(fmt.Errorf("hit replay of key %d: outcome %q, err %v, body equal %v", i, outcome, err, bytes.Equal(got, want)))
				continue
			}
			rtts = append(rtts, sp.dur())
			perCall = append(perCall, hs.perCall())
		}
	}
	// Allocations in a separate, untimed loop: reading the allocator's
	// counters stops the world.
	var allocs []float64
	for i := range bodies {
		a0 := mallocs()
		for j := 0; j < hitLoop; j++ {
			_, _, _, _ = n.svc.HandleRaw(bodies[i]) // checked in the timed loop
		}
		allocs = append(allocs, float64(mallocs()-a0)/hitLoop)
	}
	hit := median(perCall)
	m.set("service.hit_ns", float64(hit.Nanoseconds()), "ns")
	m.set("service.hit_allocs", medianF(allocs), "count")
	m.set("service.http_us", us(median(rtts)-hit), "us")
	return nil
}

// missFixture is one miss template resolved the way the service resolves
// it, with the benchmark's own runner pool on the template's graph.
type missFixture struct {
	tmpl   bodyTemplate
	name   string
	g      *graph.Graph
	alg    *algreg.Algorithm
	params algreg.Params
	edge   dist.Algo[[]int]
	vertex dist.Algo[int]
	pe     *dist.Pool[[]int]
	pv     *dist.Pool[int]
}

// canonParams applies the service's shared parameter defaults and then the
// algorithm's own canonicalization.
func canonParams(a *algreg.Algorithm, r service.Request) (algreg.Params, error) {
	p := algreg.Params{B: r.B, P: r.P, C: r.C, Mode: r.Mode, Seed: r.Seed}
	if p.B == 0 {
		p.B = 2
	}
	if p.C == 0 {
		p.C = 2
	}
	if p.Mode == "" {
		p.Mode = "wide"
	}
	if r.Kind == "edge" {
		p.C = 0
	}
	return p, a.Canon(&p)
}

func newMissFixture(t bodyTemplate, tr *tracer, parent span, build, fp *[]time.Duration) (*missFixture, error) {
	r := t.req
	f := &missFixture{tmpl: t, name: algName(r)}
	var err error
	for k := 0; k < buildReps; k++ {
		s := tr.timed("exp.build", parent.ID, parent.Req, 1, func() { f.g, err = r.Graph.Build() })
		if err != nil {
			return nil, err
		}
		*build = append(*build, s.dur())
	}
	for k := 0; k < buildReps; k++ {
		s := tr.timed("graph.fingerprint", parent.ID, parent.Req, 1, func() { f.g.Fingerprint() })
		*fp = append(*fp, s.dur())
	}
	if f.alg, err = algreg.Resolve(r.Kind, r.Alg, r.Quality); err != nil {
		return nil, err
	}
	if f.params, err = canonParams(f.alg, r); err != nil {
		return nil, err
	}
	if r.Kind == "edge" {
		f.edge, _, err = f.alg.BuildEdge(f.g, f.params)
		f.pe = dist.NewPool[[]int](f.g, 1)
	} else {
		f.vertex, _, err = f.alg.BuildVertex(f.g, f.params)
		f.pv = dist.NewPool[int](f.g, 1)
	}
	if err != nil {
		return nil, err
	}
	_, err = f.run(0, false)
	return f, err
}

func (f *missFixture) close() {
	if f.pe != nil {
		f.pe.Close()
	}
	if f.pv != nil {
		f.pv.Close()
	}
}

// runOut is one run's raw output: per-port colors for edge algorithms,
// per-vertex colors for vertex algorithms.
type runOut struct {
	ports  [][]int
	colors []int
	stats  dist.Stats
}

// run executes one run of the template's algorithm at seed on the pool or,
// with fresh, through dist.RunAlgo, with the options the service passes.
func (f *missFixture) run(seed int64, fresh bool) (runOut, error) {
	opts := []dist.Option{dist.WithSeed(seed), dist.WithEngine(dist.Compiled), dist.WithShards(0)}
	if f.pe != nil {
		var res *dist.Result[[]int]
		var err error
		if fresh {
			res, err = dist.RunAlgo(f.g, f.edge, opts...)
		} else {
			res, err = f.pe.RunAlgo(f.edge, opts...)
		}
		if err != nil {
			return runOut{}, err
		}
		return runOut{ports: res.Outputs, stats: res.Stats}, nil
	}
	var res *dist.Result[int]
	var err error
	if fresh {
		res, err = dist.RunAlgo(f.g, f.vertex, opts...)
	} else {
		res, err = f.pv.RunAlgo(f.vertex, opts...)
	}
	if err != nil {
		return runOut{}, err
	}
	return runOut{colors: res.Outputs, stats: res.Stats}, nil
}

// check is the service's post-run step: merge the endpoint views of an edge
// coloring, legality-check the colors and count them.
func (f *missFixture) check(o runOut) ([]int, error) {
	if f.pe != nil {
		colors, err := graph.MergePortColors(f.g, o.ports)
		if err != nil {
			return nil, err
		}
		if err := graph.CheckEdgeColoring(f.g, colors); err != nil {
			return nil, err
		}
		graph.CountColors(colors)
		return colors, nil
	}
	if err := graph.CheckVertexColoring(f.g, o.colors); err != nil {
		return nil, err
	}
	graph.CountColors(o.colors)
	return o.colors, nil
}

// missLayers replays true misses one at a time: HandleRaw on a fresh key of
// a warm replay service, then its children (resolve, the pooled dist run,
// the legality check) as separate spans.
func missLayers(seed int64, tr *tracer, m metrics, rep *report) error {
	n, err := startNode(serverConfig())
	if err != nil {
		return err
	}
	defer n.close()
	replay := service.New(serverConfig())
	defer replay.Close()
	rc := newRawClient(n.addr)
	defer rc.close()

	var build, fps []time.Duration
	fx := make([]*missFixture, len(missTemplates))
	defer func() {
		for _, f := range fx {
			if f != nil {
				f.close()
			}
		}
	}()
	for i, r := range missTemplates {
		t := newBodyTemplate(r)
		// The template's first request builds its graph in the server: the
		// build and fingerprint replays hang under it.
		sp, _, ok := probe(tr, rc, "request.color", 0, wireRequest(n.addr, "/v1/color", t.body(warmSeed(seed, 0))), rep)
		if !ok {
			return fmt.Errorf("miss warm-up failed: %s", rep.errs[len(rep.errs)-1])
		}
		if _, _, _, err := replay.HandleRaw(t.body(warmSeed(seed, 0))); err != nil {
			return err
		}
		if fx[i], err = newMissFixture(t, tr, sp, &build, &fps); err != nil {
			return err
		}
	}

	type perTmpl struct {
		run, fresh     []time.Duration
		allocs         []float64
		rounds, mbytes int64
	}
	pt := make([]perTmpl, len(fx))
	var missUs, selfUs, resolve, check []time.Duration
	for j := 0; j < missProbes; j++ {
		s := replaySeed(seed, j)
		for i, f := range fx {
			body := f.tmpl.body(s)
			sp, _, ok := probe(tr, rc, "request.color", 0, wireRequest(n.addr, "/v1/color", body), rep)
			if !ok {
				continue
			}
			var raw []byte
			var outcome service.Outcome
			hs := tr.timed("service.HandleRaw", sp.ID, sp.Req, 1, func() { raw, _, outcome, err = replay.HandleRaw(body) })
			if err != nil || outcome != service.Miss {
				rep.fail(fmt.Errorf("miss replay %s seed %d: outcome %q, err %v", f.name, s, outcome, err))
				continue
			}
			rs := tr.timed("algreg.resolve", hs.ID, sp.Req, resolveLoop, func() {
				for k := 0; k < resolveLoop; k++ {
					a, _ := algreg.Resolve(f.tmpl.req.Kind, f.tmpl.req.Alg, f.tmpl.req.Quality)
					p := f.params
					a.Canon(&p)
				}
			})
			var out runOut
			ds := tr.timed("dist.run."+f.name, hs.ID, sp.Req, 1, func() { out, err = f.run(s, false) })
			if err != nil {
				rep.fail(err)
				continue
			}
			var colors []int
			cs := tr.timed("graph.check", hs.ID, sp.Req, 1, func() { colors, err = f.check(out) })
			if err != nil {
				rep.fail(fmt.Errorf("%s seed %d: %w", f.name, s, err))
				continue
			}
			st := out.stats
			fs := tr.timed("dist.fresh."+f.name, sp.ID, sp.Req, 1, func() { _, err = f.run(s, true) })
			if err != nil {
				rep.fail(err)
				continue
			}
			// The replayed run must be the run the service did.
			var resp service.Response
			if err := json.Unmarshal(raw, &resp); err != nil || !slices.Equal(resp.Colors, colors) ||
				resp.Stats.Rounds != st.Rounds || resp.Stats.Bytes != st.Bytes {
				rep.fail(fmt.Errorf("%s seed %d: replayed run differs from the service's (decode err %v)", f.name, s, err))
				continue
			}
			a0 := mallocs()
			_, _ = f.run(s, false) // the same run succeeded just above
			a1 := mallocs()

			p := &pt[i]
			p.run = append(p.run, ds.dur())
			p.fresh = append(p.fresh, fs.dur())
			p.allocs = append(p.allocs, float64(a1-a0))
			p.rounds += int64(st.Rounds)
			p.mbytes += int64(st.Bytes)
			missUs = append(missUs, hs.dur())
			selfUs = append(selfUs, selfTime(hs, []span{rs, ds, cs}))
			resolve = append(resolve, rs.perCall())
			check = append(check, cs.dur())
		}
	}
	m.set("service.miss_us", us(median(missUs)), "us")
	m.set("service.miss_self_us", us(median(selfUs)), "us")
	m.set("algreg.resolve_ns", float64(median(resolve).Nanoseconds()), "ns")
	m.set("graph.check_us", us(median(check)), "us")
	m.set("exp.build_us", us(median(build)), "us")
	m.set("graph.fingerprint_us", us(median(fps)), "us")

	// Per algorithm, summed over the algorithm's miss templates: the time,
	// allocations and exact cost of one run of each of its shapes.
	type perAlg struct {
		run, fresh     time.Duration
		allocs         float64
		rounds, mbytes float64
	}
	algs := map[string]*perAlg{}
	for i, f := range fx {
		a := algs[f.name]
		if a == nil {
			a = &perAlg{}
			algs[f.name] = a
		}
		p := pt[i]
		a.run += median(p.run)
		a.fresh += median(p.fresh)
		a.allocs += medianF(p.allocs)
		if k := len(p.run); k > 0 {
			a.rounds += float64(p.rounds) / float64(k)
			a.mbytes += float64(p.mbytes) / float64(k)
		}
	}
	for name, a := range algs {
		m.set("dist.run_ms."+name, ms(a.run), "ms")
		m.set("dist.allocs."+name, a.allocs, "count")
		m.set("dist.fresh_over_pooled."+name, float64(a.fresh)/float64(max(a.run, 1)))
		m.set("dist.rounds."+name, a.rounds, "count")
		m.set("dist.msg_bytes."+name, a.mbytes, "B")
	}
	return nil
}

// clusterLayers prices the gateway hop: routing, the extra round trip and
// the extra allocations of sending the hit bodies through colorgate rather
// than straight to the owning node.
func clusterLayers(seed int64, tr *tracer, m metrics, rep *report) error {
	f, err := startGateway(2)
	if err != nil {
		return err
	}
	defer f.close()
	reqs := hitRequests(seed)
	ring := cluster.NewRing(f.peers())
	names := make([]string, len(reqs))
	gwWires := make([][]byte, len(reqs))
	directWires := make([][]byte, len(reqs))
	owners := make([]string, len(reqs))
	for i, r := range reqs {
		names[i] = r.Graph.String()
		owners[i] = strings.TrimPrefix(ring.Owner(cluster.ColorKey(names[i])), "http://")
		body := mustJSON(r)
		gwWires[i] = wireRequest(f.addr, "/v1/color", body)
		directWires[i] = wireRequest(owners[i], "/v1/color", body)
	}
	if err := warm(f.addr, gwWires); err != nil {
		return err
	}
	st0 := f.gw.Stats()
	gc := newRawClient(f.addr)
	defer gc.close()
	direct := map[string]*rawClient{}
	for _, o := range owners {
		if direct[o] == nil {
			direct[o] = newRawClient(o)
			defer direct[o].close()
		}
	}
	var gws, dirs []time.Duration
	var route span
	for k := 0; k < hopReps; k++ {
		for i := range gwWires {
			gs, gr, ok := probe(tr, gc, "request.gateway", 0, gwWires[i], rep)
			if !ok {
				continue
			}
			want := append([]byte(nil), gr.body...)
			if k == 0 && i == 0 {
				var owner string
				route = tr.timed("cluster.route", gs.ID, gs.Req, routeLoop, func() {
					for j := 0; j < routeLoop; j++ {
						owner = ring.Owner(cluster.ColorKey(names[j%len(names)]))
					}
				})
				_ = owner
			}
			// The gateway forwards the body to the key's owner: the replay
			// is that forward, sent straight to the owner.
			ds, dr, ok := probe(tr, direct[owners[i]], "request.direct", gs.ID, directWires[i], rep)
			if !ok {
				continue
			}
			if !bytes.Equal(dr.body, want) {
				rep.fail(fmt.Errorf("gateway body for key %d differs from its owner's", i))
				continue
			}
			gws = append(gws, gs.dur())
			dirs = append(dirs, ds.dur())
		}
	}
	perReq := func(rc func(int) *rawClient, wires [][]byte) float64 {
		a0 := mallocs()
		for i, w := range wires {
			rep.attempted++
			if r, err := rc(i).do(w); err != nil || r.status != http.StatusOK {
				rep.fail(fmt.Errorf("allocation probe %d: status %d, err %v", i, r.status, err))
			}
		}
		return float64(mallocs()-a0) / float64(len(wires))
	}
	var gwAllocs, dirAllocs []float64
	for k := 0; k < 5; k++ {
		gwAllocs = append(gwAllocs, perReq(func(int) *rawClient { return gc }, gwWires))
		dirAllocs = append(dirAllocs, perReq(func(i int) *rawClient { return direct[owners[i]] }, directWires))
	}
	st1 := f.gw.Stats()
	m.set("cluster.route_ns", float64(route.perCall().Nanoseconds()), "ns")
	m.set("cluster.hop_us", us(median(gws)-median(dirs)), "us")
	m.set("cluster.allocs_per_req", medianF(gwAllocs)-medianF(dirAllocs), "count")
	m.set("cluster.retry_ratio", ratio(st1.Retries-st0.Retries, st1.ColorForwards-st0.ColorForwards))
	return nil
}

// churnLayers replays the churn stream's first layerChurnOps mutations in
// the workload's batches: each batch goes to a colord session over HTTP,
// then through a local dynamic.Maintainer with the WAL off, then into a
// write-ahead log; finally the log is replayed with dynamic.Replay.
func churnLayers(seed int64, tmp string, tr *tracer, m metrics, rep *report) error {
	muts, err := churnStream(seed)
	if err != nil {
		return err
	}
	muts = muts[:layerChurnOps]
	n, err := startNode(serverConfig())
	if err != nil {
		return err
	}
	defer n.close()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	post := func(req service.MutateRequest) (service.MutateResponse, error) {
		var out service.MutateResponse
		resp, err := hc.Post(n.url()+"/v1/mutate", "application/json", bytes.NewReader(mustJSON(req)))
		if err != nil {
			return out, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return out, fmt.Errorf("mutate: status %d", resp.StatusCode)
		}
		return out, json.NewDecoder(resp.Body).Decode(&out)
	}
	const session = "layers"
	if _, err := post(service.MutateRequest{Session: session, Base: &churnBase}); err != nil {
		return err
	}
	g, err := churnBase.Build()
	if err != nil {
		return err
	}
	var events []dynamic.CommitEvent
	mt, err := dynamic.New(g, dynamic.Config{Engine: dist.Compiled, OnCommit: func(ev dynamic.CommitEvent) { events = append(events, ev) }})
	if err != nil {
		return err
	}
	defer mt.Close()
	dir, err := os.MkdirTemp(tmp, "wal-layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, session+".wal")
	lg, err := wal.Create(path, wal.Header{Session: session, Base: churnBase}, wal.Options{})
	if err != nil {
		return err
	}
	size0 := lg.Size()

	var applyPer, appendPer []time.Duration
	var dirty, acts int64
	var last span
	var lastFP string
	for off := 0; off+churnBatch <= len(muts); off += churnBatch {
		batch := muts[off : off+churnBatch]
		rep.attempted++
		var resp service.MutateResponse
		sp := tr.timed("request.mutate", 0, 0, 1, func() { resp, err = post(service.MutateRequest{Session: session, Ops: batch}) })
		if err != nil {
			rep.fail(err)
			lg.Close()
			return fmt.Errorf("layer session: %w", err)
		}
		last, lastFP = sp, resp.Fingerprint
		events = events[:0]
		var r dynamic.Report
		as := tr.timed("dynamic.Apply", sp.ID, sp.Req, len(batch), func() { r, _, err = mt.Apply(batch) })
		if err != nil {
			lg.Close()
			return err
		}
		ws := tr.timed("wal.Append", sp.ID, sp.Req, len(events), func() {
			for _, ev := range events {
				if err = lg.Append(wal.Record{Seq: ev.Seq, Op: ev.Op, Fingerprint: ev.Fingerprint}); err != nil {
					return
				}
			}
		})
		if err != nil {
			lg.Close()
			return err
		}
		dirty += int64(r.Dirty)
		acts += int64(r.Stats.Activations)
		applyPer = append(applyPer, as.perCall())
		appendPer = append(appendPer, ws.perCall())
	}
	records := lg.LastSeq()
	logBytes := lg.Size() - size0
	if err := lg.Close(); err != nil {
		return err
	}
	if want := mt.Fingerprint().String(); lastFP != want {
		rep.fail(fmt.Errorf("layer session fingerprint %.12s, local maintainer %.12s", lastFP, want))
	}
	rl, hdr, recs, err := wal.Open(path, wal.Options{})
	if err != nil {
		return err
	}
	rl.Close()
	var rm *dynamic.Maintainer
	rs := tr.timed("dynamic.Replay", last.ID, last.Req, len(recs), func() {
		rm, err = dynamic.Replay(hdr, recs, dynamic.Config{Engine: dist.Compiled})
	})
	if err != nil {
		return err
	}
	if rm.Fingerprint() != mt.Fingerprint() {
		rep.fail(fmt.Errorf("replayed log does not reproduce the session"))
	}
	rm.Close()

	ops := float64(len(muts))
	m.set("dynamic.apply_us_per_mut", us(median(applyPer)), "us")
	m.set("dynamic.dirty_per_mut", float64(dirty)/ops, "count")
	m.set("dynamic.activations_per_mut", float64(acts)/ops, "count")
	m.set("dynamic.replay_us_per_record", us(rs.perCall()), "us")
	m.set("wal.append_us", us(median(appendPer)), "us")
	m.set("wal.bytes_per_record", float64(logBytes)/float64(max(records, 1)), "B")
	return nil
}
