package edgecolor

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/panconesi"
)

// LegalEdgeColoring runs the §5 edge variant of Procedure Legal-Color on a
// general graph g: a legal edge coloring with at most pl.TotalPalette()
// colors, where pl is an edge-mode core.Plan (pl.Edge == true, c = 2).
//
// Execution is level-synchronous like the vertex variant: each edge carries
// its path through the recursion tree (ψ₁ψ₂…), co-maintained by both
// endpoints; level i runs the edge Defective-Color on all label classes
// simultaneously (they are edge-disjoint); the leaves are colored by the
// multi-class Panconesi–Rizzi (2Λ⁽ʳ⁾−1)-edge-coloring, all classes in
// parallel with disjoint palettes. Returns per-vertex port colorings (merge
// with graph.MergePortColors).
func LegalEdgeColoring(g *graph.Graph, pl *core.Plan, mode MsgMode, opts ...dist.Option) (*dist.Result[[]int], error) {
	algo, err := LegalEdgeAlgo(g.MaxDegree(), pl, mode)
	if err != nil {
		return nil, err
	}
	return dist.RunAlgo(g, algo, opts...)
}

// LegalEdgeProcess returns the per-vertex body of LegalEdgeColoring for a
// graph of maximum degree delta, validated against the plan.
func LegalEdgeProcess(delta int, pl *core.Plan, mode MsgMode) (func(dist.Process) []int, error) {
	if !pl.Edge {
		return nil, fmt.Errorf("edgecolor: vertex-mode plan passed to LegalEdgeProcess")
	}
	if delta > pl.Delta {
		return nil, fmt.Errorf("edgecolor: graph degree %d exceeds plan Δ=%d", delta, pl.Delta)
	}
	return func(v dist.Process) []int {
		return legalEdgeVertex(v, pl, mode, nil)
	}, nil
}

// LegalEdgeAlgo bundles LegalEdgeProcess with its compiled form: the
// pl.Depth() defective levels interpreted (dist.InterpretOn), then the
// Panconesi–Rizzi leaf as flat passes (panconesi.FlatLeaf) continuing the
// same Tally. A depth-0 plan interprets nothing. Callers that execute on a
// reusable dist.Runner or dist.Pool (the coloring service) use it to get
// the exact algorithm LegalEdgeColoring runs.
func LegalEdgeAlgo(delta int, pl *core.Plan, mode MsgMode) (dist.Algo[[]int], error) {
	vertex, err := LegalEdgeProcess(delta, pl, mode)
	if err != nil {
		return dist.Algo[[]int]{}, err
	}
	return dist.Algo[[]int]{Vertex: vertex, Compiled: legalEdgeFlat{vertex: vertex, pl: pl, mode: mode}}, nil
}

type legalEdgeFlat struct {
	vertex func(dist.Process) []int
	pl     *core.Plan
	mode   MsgMode
}

func (a legalEdgeFlat) RunCompiled(g *graph.Graph, env dist.CompiledEnv, out [][]int) (dist.Stats, error) {
	slots := g.Offsets()[g.N()]
	// Per slot: the leaf class (1-based, 0 = excluded) and palette offset;
	// nil at depth 0, where every edge is in class 1 at offset 0.
	var classOf, offsets []int
	t := env.NewTally()
	if a.pl.Depth() > 0 {
		classOf, offsets = make([]int, slots), make([]int, slots)
		levels := make([]edgeLevels, g.N())
		if err := dist.InterpretOn(g, env, t, func(v dist.Process) edgeLevels {
			return legalEdgeLevels(v, a.pl, a.mode, nil)
		}, levels); err != nil {
			return t.Stats, err
		}
		for v, lv := range levels {
			base := int(g.Offsets()[v])
			for p, c := range lv.classIdx {
				classOf[base+p] = c + 1
				offsets[base+p] = lv.offsets[p]
			}
		}
	}
	leaf := panconesi.NewFlatLeaf(g, classOf, a.pl.LeafBound())
	if leaf == nil {
		return dist.CompileProcess(a.vertex).RunCompiled(g, env, out)
	}
	colors := make([]int, slots)
	if err := leaf.Run(t, colors); err != nil {
		return t.Stats, err
	}
	for s, c := range offsets {
		if classOf[s] != 0 {
			colors[s] += c
		}
	}
	graph.PortSlices(g, colors, out)
	return t.Stats, nil
}

// edgeLevels is one vertex's state after the defective levels: per port,
// the edge's recursion path in base p prefixed by its initial class (-1 on
// excluded ports), and its palette offset.
type edgeLevels struct {
	classIdx []int
	offsets  []int
}

// legalEdgeVertex is the per-vertex body of the edge Legal-Color. initClass
// optionally pre-partitions the edges (per port, 0-based class, -1 =
// excluded; nil = all edges in class 0): the §6 extensions use it to run the
// recursion on many edge-disjoint classes in parallel, each class keeping
// its own disjoint palette of size pl.TotalPalette(). Returns per-port
// colors (0 on excluded ports).
func legalEdgeVertex(v dist.Process, pl *core.Plan, mode MsgMode, initClass []int) []int {
	lv := legalEdgeLevels(v, pl, mode, initClass)
	// Leaf: multi-class Panconesi–Rizzi with degree bound Λ⁽ʳ⁾.
	classOf := make([]int, v.Deg())
	for port := range classOf {
		if lv.classIdx[port] >= 0 {
			classOf[port] = lv.classIdx[port] + 1
		}
	}
	leaf := panconesi.EdgeColorMulti(v, classOf, pl.LeafBound())
	colors := make([]int, v.Deg())
	for port := range colors {
		if lv.classIdx[port] >= 0 {
			colors[port] = lv.offsets[port] + leaf[port]
		}
	}
	return colors
}

// legalEdgeLevels runs the pl.Depth() defective levels of legalEdgeVertex:
// level i runs the edge Defective-Color on all label classes at once.
func legalEdgeLevels(v dist.Process, pl *core.Plan, mode MsgMode, initClass []int) edgeLevels {
	deg := v.Deg()
	// classIdx[port] encodes the edge's recursion path in base p (0-based),
	// prefixed by its initial class; -1 marks excluded ports.
	classIdx := make([]int, deg)
	offsets := make([]int, deg) // class·ϑ⁽⁰⁾ + Σ (ψ_i−1)·ϑ⁽ⁱ⁺¹⁾ per edge
	for port := range classIdx {
		if initClass != nil {
			classIdx[port] = initClass[port]
			if initClass[port] >= 0 {
				offsets[port] = initClass[port] * pl.TotalPalette()
			}
		}
	}
	for level := 0; level < pl.Depth(); level++ {
		classOf := make([]int, deg)
		for port := range classOf {
			if classIdx[port] >= 0 {
				classOf[port] = classIdx[port] + 1
			}
		}
		psis := DefectiveEdgeStep(v, classOf, pl.P, pl.B*pl.P, pl.Levels[level], mode)
		for port := range classIdx {
			if classIdx[port] < 0 {
				continue
			}
			classIdx[port] = classIdx[port]*pl.P + (psis[port] - 1)
			offsets[port] += (psis[port] - 1) * pl.Thetas[level+1]
		}
	}
	return edgeLevels{classIdx: classIdx, offsets: offsets}
}

// Rounds returns the exact round cost of LegalEdgeColoring for an n-vertex
// graph under the given plan and message mode.
func Rounds(n int, pl *core.Plan, mode MsgMode) int {
	pPrime := pl.B * pl.P
	window := pPrime * pPrime
	if mode == Short {
		window = (pPrime*pPrime + 1) * (pl.P + 1)
	}
	perLevel := 1 + window // labeling round + ψ window
	return pl.Depth()*perLevel + panconesi.Rounds(n, pl.LeafBound())
}
