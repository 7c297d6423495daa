package fewcolors

import (
	"cmp"
	"slices"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/panconesi"
	"repro/internal/wire"
)

// flat is the compiled form of vertex: the Panconesi–Rizzi base as
// panconesi.FlatLeaf, then every class step as flat passes over per-slot
// colors. Each edge reads its neighbors' colors straight from the arrays;
// messages are priced through the Tally (wire *Len), never encoded.
type flat struct{}

func (flat) RunCompiled(g *graph.Graph, env dist.CompiledEnv, out [][]int) (dist.Stats, error) {
	delta := g.MaxDegree()
	slots := g.Offsets()[g.N()]
	colors := make([]int, slots)
	t := env.NewTally()
	if delta == 0 {
		graph.PortSlices(g, colors, out)
		return t.Stats, nil
	}
	leaf := panconesi.NewFlatLeaf(g, nil, delta)
	if leaf == nil {
		return dist.CompileProcess(vertex).RunCompiled(g, env, out)
	}
	if err := leaf.Run(t, colors); err != nil {
		return t.Stats, err
	}
	s := newSweeper(g, colors, delta)
	top := 2*delta - 1
	for range sweeps {
		for k := top; k >= 2; k-- {
			if err := s.vacate(t, k); err != nil {
				return t.Stats, err
			}
			if err := s.descend(t, k); err != nil {
				return t.Stats, err
			}
		}
	}
	graph.PortSlices(g, colors, out)
	return t.Stats, nil
}

// sweeper is the flat state of the class steps. A proper edge coloring is
// kept per slot (both slots of an edge always agree) together with its
// inverse, portAt: the port of each vertex holding each color.
type sweeper struct {
	g      *graph.Graph
	off    []int32
	colors []int   // per slot
	width  int     // portAt row width: the base palette 2Δ−1, plus color 0
	portAt []int32 // portAt[v*width+c]: v's port colored c, or -1
	vbytes []int   // per vertex: Σ wire.IntLen over its colors
	// Per vacate step: each vertex's own request (port, target), and the
	// requests and grants in flight.
	reqPort []int32
	reqTo   []int
	reqs    []vacateReq
	grants  []vacateReq
}

// vacateReq is a request arriving at vertex y on its port p: vacate color a
// by moving the edge to b. As a grant, it is the recoloring applied.
type vacateReq struct {
	y, p int32
	a, b int
}

func newSweeper(g *graph.Graph, colors []int, delta int) *sweeper {
	n := g.N()
	s := &sweeper{
		g: g, off: g.Offsets(), colors: colors, width: 2 * delta,
		vbytes:  make([]int, n),
		reqPort: make([]int32, n),
		reqTo:   make([]int, n),
	}
	s.portAt = make([]int32, n*s.width)
	for i := range s.portAt {
		s.portAt[i] = -1
	}
	for v := 0; v < n; v++ {
		s.reqPort[v] = -1
		base := int(s.off[v])
		for p := range g.Deg(v) {
			c := colors[base+p]
			s.portAt[v*s.width+c] = int32(p)
			s.vbytes[v] += wire.IntLen(c)
		}
	}
	return s
}

func (s *sweeper) deg(v int) int { return int(s.off[v+1] - s.off[v]) }

// holds reports whether vertex v has an edge colored c.
func (s *sweeper) holds(v, c int) bool { return s.portAt[v*s.width+c] >= 0 }

// nbr returns the neighbor of v across port p.
func (s *sweeper) nbr(v int, p int32) int { return int(s.g.Neighbors(v)[p]) }

// freeBelow returns the smallest color below k held at neither v nor u, or
// 0 when there is none.
func (s *sweeper) freeBelow(k, v, u int) int {
	for c := 1; c < k; c++ {
		if !s.holds(v, c) && !s.holds(u, c) {
			return c
		}
	}
	return 0
}

// recolor moves the edge at v's port p from its color to c, on both sides.
func (s *sweeper) recolor(v int, p int32, c int) {
	a := s.colors[s.off[v]+p]
	s.set(v, p, a, c)
	s.set(s.nbr(v, p), s.g.ReversePorts(v)[p], a, c)
}

// set moves v's port p from color a to c.
func (s *sweeper) set(v int, p int32, a, c int) {
	s.colors[s.off[v]+p] = c
	s.portAt[v*s.width+a] = -1
	s.portAt[v*s.width+c] = p
	s.vbytes[v] += wire.IntLen(c) - wire.IntLen(a)
}

// vacate replays vacateClass's three rounds for class k at every vertex.
func (s *sweeper) vacate(t *dist.Tally, k int) error {
	n := s.g.N()
	// Round 1: every vertex broadcasts its incident colors.
	if err := t.StartRound(n); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if d := s.deg(v); d > 0 {
			t.Messages(d, wire.UintLen(uint64(d))+s.vbytes[v])
		}
	}
	// Round 2: each endpoint of a class-k edge scans the colors below k; the
	// first held at this endpoint only names the edge to vacate, if a target
	// free at both of that edge's endpoints exists.
	if err := t.StartRound(n); err != nil {
		return err
	}
	s.reqs = s.reqs[:0]
	for v := 0; v < n; v++ {
		kp := s.portAt[v*s.width+k]
		if kp < 0 {
			continue
		}
		u := s.nbr(v, kp)
		for a := 1; a < k; a++ {
			mine, theirs := s.holds(v, a), s.holds(u, a)
			if !mine && !theirs {
				break
			}
			if mine && theirs {
				continue
			}
			if mine {
				q := s.portAt[v*s.width+a]
				w := s.nbr(v, q)
				if b := s.freeBelow(k, v, w); b > 0 {
					t.Message(wire.IntLen(a) + wire.IntLen(b))
					s.reqPort[v], s.reqTo[v] = q, b
					s.reqs = append(s.reqs, vacateReq{y: int32(w), p: s.g.ReversePorts(v)[q], a: a, b: b})
				}
			}
			break
		}
	}
	// Round 3: each vertex grants requests in (target, current, port) order,
	// one per target color, never into a color it holds or has requested.
	if err := t.StartRound(n); err != nil {
		return err
	}
	slices.SortFunc(s.reqs, func(x, z vacateReq) int {
		return cmp.Or(cmp.Compare(x.y, z.y), cmp.Compare(x.b, z.b), cmp.Compare(x.a, z.a), cmp.Compare(x.p, z.p))
	})
	s.grants = s.grants[:0]
	lastY, lastB := int32(-1), 0
	for _, rq := range s.reqs {
		y := int(rq.y)
		if rq.p == s.reqPort[y] || rq.a != s.colors[s.off[y]+rq.p] || rq.b >= k {
			continue
		}
		if s.holds(y, rq.b) || (s.reqPort[y] >= 0 && s.reqTo[y] == rq.b) || (rq.y == lastY && rq.b == lastB) {
			continue
		}
		lastY, lastB = rq.y, rq.b
		t.Message(wire.IntLen(rq.b))
		s.grants = append(s.grants, rq)
	}
	// Granted moves recolor both sides at once: the granter as it replies,
	// the requester as it reads the reply.
	for _, gr := range s.grants {
		s.recolor(int(gr.y), gr.p, gr.b)
	}
	for _, rq := range s.reqs {
		s.reqPort[s.nbr(int(rq.y), rq.p)] = -1
	}
	return nil
}

// descend replays descendClass for class k: both endpoints of every
// class-k edge exchange their other colors, then the edge takes the
// smallest color below k free at both, or keeps k. Class k is a matching,
// so the edges move independently.
func (s *sweeper) descend(t *dist.Tally, k int) error {
	n := s.g.N()
	if err := t.StartRound(n); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if s.holds(v, k) {
			t.Message(wire.UintLen(uint64(s.deg(v)-1)) + s.vbytes[v] - wire.IntLen(k))
		}
	}
	for v := 0; v < n; v++ {
		if kp := s.portAt[v*s.width+k]; kp >= 0 {
			if c := s.freeBelow(k, v, s.nbr(v, kp)); c > 0 {
				s.recolor(v, kp, c)
			}
		}
	}
	return nil
}
