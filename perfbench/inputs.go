package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/exp"
	"repro/internal/service"
)

// Workload inputs. Every input is a pure function of the workload seed: the
// benchmark generates request bodies and mutation streams here, and the
// program under test receives only those bytes.

// hitTemplates are the small-mix shapes the hit and gateway workloads replay:
// edge be/pr/greedy and vertex be/greedy on graphs of 40-64 vertices.
var hitTemplates = []service.Request{
	{Kind: "edge", Alg: "be", Graph: exp.GraphSpec{Family: "gnm", N: 64, M: 192, Seed: 1}},
	{Kind: "edge", Alg: "pr", Graph: exp.GraphSpec{Family: "regular", N: 48, Deg: 4, Seed: 2}},
	{Kind: "edge", Alg: "greedy", Graph: exp.GraphSpec{Family: "tree", N: 64, Seed: 3}},
	{Kind: "vertex", Alg: "be", Graph: exp.GraphSpec{Family: "powercycle", N: 40, Deg: 3}},
	{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "cycle", N: 64}},
}

// hitSeedsPerTemplate makes the hit key set 5 × 8 = 40 requests.
const hitSeedsPerTemplate = 8

// missTemplates are the miss workload's fixed graph specs: the medium mix
// with its edge-be gnm shrunk from (256, 1024) to (160, 640), so that no
// template takes more than about a third of the busy time, plus one
// quality:fewcolors template. Together they cover every servable algorithm.
var missTemplates = []service.Request{
	{Kind: "edge", Alg: "be", Graph: exp.GraphSpec{Family: "gnm", N: 160, M: 640, Seed: 1}},
	{Kind: "edge", Alg: "be", Graph: exp.GraphSpec{Family: "linegraph", N: 32, M: 120, Seed: 2}},
	{Kind: "edge", Alg: "pr", Graph: exp.GraphSpec{Family: "regular", N: 128, Deg: 8, Seed: 3}},
	{Kind: "edge", Alg: "greedy", Graph: exp.GraphSpec{Family: "gnm", N: 128, M: 384, Seed: 4}},
	{Kind: "edge", Quality: "fewcolors", Graph: exp.GraphSpec{Family: "gnm", N: 64, M: 192, Seed: 1}},
	{Kind: "vertex", Alg: "be", Graph: exp.GraphSpec{Family: "powercycle", N: 120, Deg: 4}},
	{Kind: "vertex", Alg: "be", Graph: exp.GraphSpec{Family: "linegraph", N: 24, M: 70, Seed: 5}},
	{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "geometric", N: 160, Seed: 6}},
}

// churnBase is the churn session's starting graph; the stream is the mix
// generator (an insert or a delete by coin flip). churnOps bounds the
// pre-generated stream (about twice what the writer commits in a 20-second
// window today; a faster writer rolls over to a fresh session, counted); churnBatch is mutations per mutate request; every
// churnReadEvery-th request is a colors:true read.
var churnBase = exp.GraphSpec{Family: "gnm", N: 512, M: 1536, Seed: 1}

const (
	churnOps       = 1 << 16
	churnBatch     = 16
	churnReadEvery = 4
)

// Algorithm seeds. A workload seed s owns the int64 range starting at s<<32;
// miss clients interleave inside it (client c takes offsets c, c+2, ...), so
// their keys are disjoint from each other and from the warm-up and replay
// seeds below.
func seedBase(seed int64) int64 { return seed << 32 }

func hitSeed(seed int64, i int) int64 { return seedBase(seed) + int64(i) }

func missSeed(seed int64, client, i int) int64 {
	return seedBase(seed) + int64(2*i+client)
}

func warmSeed(seed int64, k int) int64 { return seedBase(seed) - 1 - int64(k) }

func replaySeed(seed int64, j int) int64 { return seedBase(seed) + 1<<31 + int64(j) }

// hitRequests is the hit key set for seed.
func hitRequests(seed int64) []service.Request {
	var reqs []service.Request
	for s := 0; s < hitSeedsPerTemplate; s++ {
		for _, t := range hitTemplates {
			t.Seed = hitSeed(seed, s)
			reqs = append(reqs, t)
		}
	}
	return reqs
}

// algName names a template's algorithm the way the per-layer metrics do
// ("edge-be", "edge-fewcolors", ...).
func algName(r service.Request) string {
	if r.Alg == "" {
		return r.Kind + "-" + r.Quality
	}
	return r.Kind + "-" + r.Alg
}

// bodyTemplate renders a request with a placeholder seed once, so that any
// seed's body is one append of the seed digits between a fixed prefix and
// suffix: the miss clients build each new body without JSON encoding.
type bodyTemplate struct {
	req       service.Request
	pre, post []byte
}

const seedPlaceholder = 7777777777777777777

func newBodyTemplate(r service.Request) bodyTemplate {
	ph := r
	ph.Seed = seedPlaceholder
	b, err := json.Marshal(ph)
	if err != nil {
		panic("perfbench: unmarshalable template: " + err.Error())
	}
	digits := []byte(strconv.FormatInt(seedPlaceholder, 10))
	i := bytes.Index(b, digits)
	return bodyTemplate{req: r, pre: b[:i], post: b[i+len(digits):]}
}

func (t bodyTemplate) body(seed int64) []byte {
	b := append([]byte(nil), t.pre...)
	b = strconv.AppendInt(b, seed, 10)
	return append(b, t.post...)
}

func (t bodyTemplate) request(seed int64) service.Request {
	r := t.req
	r.Seed = seed
	return r
}

// wireRequest renders the full HTTP/1.1 form of a POST, so a client's send
// path is one Write of prebuilt bytes.
func wireRequest(host, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, host, len(body))
	b.Write(body)
	return b.Bytes()
}

// churnStream generates the churn workload's mutation stream for seed.
func churnStream(seed int64) ([]exp.Mutation, error) {
	_, muts, err := exp.MutationStream{Kind: "mix", Base: churnBase, Ops: churnOps, Seed: seed}.Generate()
	return muts, err
}
