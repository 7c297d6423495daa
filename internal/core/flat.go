package core

import (
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/wire"
)

// LegalColorAlgo bundles LegalColorProcess with its compiled form: the §4.2
// auxiliary Linial chain, the leaf's masked Linial chain and the
// Kuhn–Wattenhofer block merge run as flat passes over the CSR arrays, and
// the pl.Depth() Defective-Color levels between them are interpreted
// (dist.InterpretOn) on the same Tally. A depth-0 plan interprets nothing.
// Outputs, Stats and round-cap errors equal the per-vertex form's on every
// engine. Callers that execute on a reusable dist.Runner or dist.Pool (the
// coloring service) use it to get the exact algorithm LegalColoring runs.
func LegalColorAlgo(nBound, delta int, pl *Plan, mode Mode) (dist.Algo[int], error) {
	s, err := processSchedule(nBound, delta, pl, mode)
	if err != nil {
		return dist.Algo[int]{}, err
	}
	vertex := func(v dist.Process) int { return legalColorVertex(v, pl, s) }
	return dist.Algo[int]{Vertex: vertex, Compiled: legalFlat{vertex: vertex, pl: pl, s: s, nBound: nBound, delta: delta}}, nil
}

type legalFlat struct {
	vertex        func(dist.Process) int
	pl            *Plan
	s             *schedule
	nBound, delta int
}

// RunCompiled declines — interprets the per-vertex form instead — wherever
// that form could panic: an identifier outside 1..nBound (a start color
// outside the first chain step's palette), a degree above delta (the
// auxiliary chain's budget) or, checked once any levels have run, a
// leaf-subgraph degree above Λ⁽ʳ⁾ (the leaf chain's budget, and
// Kuhn–Wattenhofer's free color). Within those bounds
// every Linial step has a conflict-free point (q > t·Λ), every chain keeps
// the coloring legal, and every merging vertex finds a free color, so the
// flat passes compute exactly what the per-vertex form does.
func (a legalFlat) RunCompiled(g *graph.Graph, env dist.CompiledEnv, out []int) (dist.Stats, error) {
	n := g.N()
	if n > a.nBound || g.MaxDegree() > a.delta {
		// Identifiers are a permutation of 1..n.
		return dist.CompileProcess(a.vertex).RunCompiled(g, env, out)
	}
	t := env.NewTally()
	f := &flatLegal{g: g, t: t}
	colors := out
	for v := range colors {
		colors[v] = g.ID(v)
	}
	if err := f.chain(a.s.auxSteps, colors); err != nil {
		return t.Stats, err
	}
	var offset []int
	if a.pl.Depth() > 0 {
		levels := make([]vertexLevels, n)
		startOf := make(map[int]int, n)
		for v, c := range colors {
			startOf[g.ID(v)] = c
		}
		if err := dist.InterpretOn(g, env, t, func(p dist.Process) vertexLevels {
			return legalLevels(p, a.pl, a.s, nil, startOf[p.ID()])
		}, levels); err != nil {
			return t.Stats, err
		}
		off := g.Offsets()
		f.same = make([]bool, off[n])
		f.deg = make([]int32, n)
		offset = make([]int, n)
		for v, lv := range levels {
			copy(f.same[off[v]:], lv.same)
			for _, s := range lv.same {
				if s {
					f.deg[v]++
				}
			}
			if int(f.deg[v]) > a.pl.LeafBound() {
				return dist.CompileProcess(a.vertex).RunCompiled(g, env, out)
			}
			offset[v] = lv.offset
		}
	}
	if err := f.chain(a.s.leafSteps, colors); err != nil {
		return t.Stats, err
	}
	if err := f.kwMerge(colors, a.s.leafK, a.pl.LeafBound()+1); err != nil {
		return t.Stats, err
	}
	for v, o := range offset {
		colors[v] += o
	}
	return t.Stats, nil
}

// flatLegal runs Legal-Color's color-exchange phases for every vertex at
// once: in each round every vertex sends its color on its same-subgraph
// ports (exchangeInts, reduce.KWReduceColors) and reads its same-subgraph
// neighbors' colors out of one per-vertex color array. The same masks are
// symmetric (both endpoints of an edge split on the same ψ pair), so a
// vertex hears exactly the neighbors it sends to.
type flatLegal struct {
	g    *graph.Graph
	t    *dist.Tally
	same []bool  // per slot; nil = every port
	deg  []int32 // per vertex: same-subgraph degree; nil with same
	nbrs []int   // neighbor-color scratch
	// sent[s] counts the messages of s bytes one exchange round stages:
	// Σ over vertices whose color encodes in s bytes of their degree.
	sent [11]int
}

// degree returns v's same-subgraph degree.
func (f *flatLegal) degree(v int) int {
	if f.deg != nil {
		return int(f.deg[v])
	}
	return f.g.Deg(v)
}

// count recomputes sent from colors.
func (f *flatLegal) count(colors []int) {
	clear(f.sent[:])
	for v, c := range colors {
		f.sent[wire.IntLen(c)] += f.degree(v)
	}
}

// recolor sets v's color to c, keeping sent current.
func (f *flatLegal) recolor(colors []int, v, c int) {
	d := f.degree(v)
	f.sent[wire.IntLen(colors[v])] -= d
	f.sent[wire.IntLen(c)] += d
	colors[v] = c
}

// exchange accounts one round in which all n vertices send their colors,
// as counted in sent.
func (f *flatLegal) exchange(n int) error {
	if err := f.t.StartRound(n); err != nil {
		return err
	}
	for size, count := range f.sent {
		f.t.Messages(count, size)
	}
	return nil
}

// nbrColors returns v's same-subgraph neighbors' colors in port order, in
// f's scratch.
func (f *flatLegal) nbrColors(v int, colors []int) []int {
	f.nbrs = f.nbrs[:0]
	base := int(f.g.Offsets()[v])
	for p, u := range f.g.Neighbors(v) {
		if f.same == nil || f.same[base+p] {
			f.nbrs = append(f.nbrs, colors[u])
		}
	}
	return f.nbrs
}

// chain runs linial.RunChain's steps, one exchange round each.
func (f *flatLegal) chain(steps []linial.Step, colors []int) error {
	if len(steps) == 0 {
		return nil
	}
	next := make([]int, len(colors))
	var sc linial.Scratch
	for _, s := range steps {
		f.count(colors)
		if err := f.exchange(len(colors)); err != nil {
			return err
		}
		for v, c := range colors {
			next[v], _ = s.ApplyScratch(&sc, c, f.nbrColors(v, colors))
		}
		copy(colors, next)
	}
	return nil
}

// kwMerge is reduce.KWReduceColors for every vertex: per merge level and
// position j, one exchange round, after which each upper-block vertex at
// position j takes the smallest color of its pair's lower block that no
// same-subgraph neighbor holds. Each level buckets the upper-block vertices
// by position first, so round j touches only its own movers. Recoloring in
// place is exact: two vertices recoloring in one round are either
// non-adjacent or in different block pairs, so neither reads a color the
// other writes.
func (f *flatLegal) kwMerge(colors []int, k, target int) error {
	if target < 1 || k <= target {
		return nil
	}
	n := len(colors)
	used := make([]bool, target)
	movers := make([]int32, n)     // upper-block vertices by position
	end := make([]int32, target+1) // position j's movers: movers[end[j]:end[j+1]]
	at := make([]int32, target)
	for blocks := (k + target - 1) / target; blocks > 1; blocks = (blocks + 1) / 2 {
		clear(end)
		for _, c := range colors {
			if (c-1)/target%2 == 1 {
				end[(c-1)%target+1]++
			}
		}
		for j := 1; j <= target; j++ {
			end[j] += end[j-1]
		}
		copy(at, end)
		for v, c := range colors {
			if (c-1)/target%2 == 1 {
				pos := (c - 1) % target
				movers[at[pos]] = int32(v)
				at[pos]++
			}
		}
		f.count(colors)
		for j := 0; j < target; j++ {
			if err := f.exchange(n); err != nil {
				return err
			}
			for _, v := range movers[end[j]:end[j+1]] {
				lo := ((colors[v]-1)/target-1)*target + 1
				f.recolor(colors, int(v), f.free(int(v), colors, lo, used))
			}
		}
		for v, c := range colors {
			block, pos := (c-1)/target, (c-1)%target
			colors[v] = (block/2)*target + pos + 1
		}
	}
	return nil
}

// free returns the smallest color in lo..lo+len(used)-1 that no
// same-subgraph neighbor of v holds.
func (f *flatLegal) free(v int, colors []int, lo int, used []bool) int {
	clear(used)
	for _, c := range f.nbrColors(v, colors) {
		if c >= lo && c < lo+len(used) {
			used[c-lo] = true
		}
	}
	for i, u := range used {
		if !u {
			return lo + i
		}
	}
	panic("core: no free color in block; leaf degree bound violated")
}
