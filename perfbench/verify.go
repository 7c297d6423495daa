package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/service"
)

// verifier checks responses off the clock. ref is a separate in-process
// Service: a body that must be byte-identical is compared against the
// json.Encoder rendering of ref.Handle for the same request.
type verifier struct {
	ref       *service.Service
	graphs    map[string]*graph.Graph
	refBodies map[string][]byte
}

func newVerifier() *verifier {
	return &verifier{
		ref:       service.New(serverConfig()),
		graphs:    map[string]*graph.Graph{},
		refBodies: map[string][]byte{},
	}
}

func (v *verifier) close() { v.ref.Close() }

func (v *verifier) graph(spec exp.GraphSpec) (*graph.Graph, error) {
	k := spec.String()
	if g, ok := v.graphs[k]; ok {
		return g, nil
	}
	g, err := spec.Build()
	if err != nil {
		return nil, err
	}
	v.graphs[k] = g
	return g, nil
}

// direct is the body an in-process Service.Handle gives for req, rendered
// the way colord's HTTP layer renders it.
func (v *verifier) direct(req service.Request) ([]byte, error) {
	k, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if b, ok := v.refBodies[string(k)]; ok {
		return b, nil
	}
	resp, _, err := v.ref.Handle(req)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, err
	}
	v.refBodies[string(k)] = buf.Bytes()
	return buf.Bytes(), nil
}

// color checks one /v1/color response body for req: it must decode to a
// legal coloring of req's graph whose largest color is within the palette
// bound and whose numColors is right; with identical set it must also equal
// the direct rendering byte for byte. It returns the colors used.
func (v *verifier) color(req service.Request, body []byte, identical bool) (int, error) {
	var resp service.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode: %w", err)
	}
	g, err := v.graph(req.Graph)
	if err != nil {
		return 0, err
	}
	if resp.Kind != req.Kind || resp.N != g.N() || resp.M != g.M() || resp.Graph != req.Graph.String() {
		return 0, fmt.Errorf("%s: response describes %s %s (n=%d m=%d)", req.Graph, resp.Kind, resp.Graph, resp.N, resp.M)
	}
	switch req.Kind {
	case "edge":
		err = graph.CheckEdgeColoring(g, resp.Colors)
	default:
		err = graph.CheckVertexColoring(g, resp.Colors)
	}
	if err != nil {
		return 0, fmt.Errorf("%s %s seed %d: %w", req.Kind, req.Graph, req.Seed, err)
	}
	if mc := graph.MaxColor(resp.Colors); mc > resp.Palette {
		return 0, fmt.Errorf("%s seed %d: color %d beyond palette bound %d", req.Graph, req.Seed, mc, resp.Palette)
	}
	if n := graph.CountColors(resp.Colors); n != resp.NumColors {
		return 0, fmt.Errorf("%s seed %d: numColors %d, counted %d", req.Graph, req.Seed, resp.NumColors, n)
	}
	if identical {
		want, err := v.direct(req)
		if err != nil {
			return 0, fmt.Errorf("direct %s seed %d: %w", req.Graph, req.Seed, err)
		}
		if !bytes.Equal(body, want) {
			return 0, fmt.Errorf("%s seed %d: body differs from a direct Service.Handle", req.Graph, req.Seed)
		}
	}
	return resp.NumColors, nil
}

// mirror tracks a dynamic session's edge set on the client side by applying
// the same mutations, so a coloring read can be checked against the graph
// it must color.
type mirror struct {
	n     int
	edges map[graph.Edge]struct{}
}

func newMirror(spec exp.GraphSpec) (*mirror, error) {
	g, err := spec.Build()
	if err != nil {
		return nil, err
	}
	m := &mirror{n: g.N(), edges: make(map[graph.Edge]struct{}, g.M())}
	for _, e := range g.Edges() {
		m.edges[e] = struct{}{}
	}
	return m, nil
}

func (m *mirror) apply(op exp.Mutation) {
	e := graph.Edge{U: min(op.U, op.V), V: max(op.U, op.V)}
	if op.Op == exp.OpInsert {
		m.edges[e] = struct{}{}
	} else {
		delete(m.edges, e)
	}
}

func (m *mirror) graph() (*graph.Graph, error) {
	b := graph.NewBuilder(m.n)
	for e := range m.edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// session checks a colors:true read taken after the mirror's mutations: the
// fingerprint names the mirror's edge set, and the colors are a legal edge
// coloring of it within the repair's first-fit bound 2Δ−1.
func (m *mirror) session(body []byte) (int, error) {
	var resp service.MutateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode read: %w", err)
	}
	g, err := m.graph()
	if err != nil {
		return 0, err
	}
	if fp := g.EdgeSetFingerprint().String(); resp.Fingerprint != fp {
		return 0, fmt.Errorf("read fingerprint %.12s, mirror %.12s", resp.Fingerprint, fp)
	}
	if err := graph.CheckEdgeColoring(g, resp.Colors); err != nil {
		return 0, fmt.Errorf("read coloring: %w", err)
	}
	if mc, bound := graph.MaxColor(resp.Colors), 2*g.MaxDegree()-1; mc > bound {
		return 0, fmt.Errorf("read color %d beyond 2Δ−1 = %d", mc, bound)
	}
	if n := graph.CountColors(resp.Colors); n != resp.NumColors {
		return 0, fmt.Errorf("read numColors %d, counted %d", resp.NumColors, n)
	}
	return resp.NumColors, nil
}
