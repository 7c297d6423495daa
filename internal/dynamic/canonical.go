// Package dynamic maintains a legal edge coloring under edge churn.
//
// The LOCAL-model algorithms this repository reproduces are local by
// construction: inserting or deleting an edge can only invalidate colors in
// a bounded neighborhood of the touched edge, and bounded neighborhood
// independence keeps that repair region small. Package dynamic turns that
// locality into a first-class workload: a Maintainer owns a mutable overlay
// over an immutable CSR graph (graph.Overlay) and, after every mutation,
// restores the coloring by recoloring only the affected region — executed as
// a real distributed run of the dist engines on the induced repair subgraph
// — instead of recomputing the whole graph.
//
// # The canonical coloring
//
// The maintained coloring is pinned to an explicit, centrally recomputable
// contract. The canonical coloring of a graph assigns every edge, in
// increasing lexicographic (U, V) order (= canonical edge-id order), the
// smallest color >= 1 not used by any lexicographically smaller incident
// edge. It is the unique fixpoint of
//
//	color(e) = mex{ color(f) : f incident to e, f <lex e }
//
// and uses at most 2Δ-1 colors. CanonicalColors computes it sequentially;
// CanonicalRun computes the same colors as a distributed run (each edge
// decides once every lexicographically smaller incident edge has decided,
// so scheduling cannot leak into the output). TestCanonicalRunMatches pins
// the two against each other on every generator family.
//
// # The repair-region contract
//
// Because the canonical coloring is a fixpoint of a local equation, a
// mutation invalidates exactly the edges whose fixpoint inputs change, and
// that set is discoverable by change propagation: the touched edge (for an
// insert) or the incident lexicographic successors of the touched edge (for
// a delete) are re-evaluated, and any edge whose color changes pushes its
// own incident successors, in lexicographic order, until the frontier is
// quiet. The dirty edges form the repair subgraph; committed neighbors
// enter as per-edge forbidden-color sets. The distributed repair run then
// recolors exactly the dirty edges, and the result is — provably and, in
// the tests, byte-verifiably — identical to CanonicalColors of the whole
// mutated graph. Repair cost is measured in dist.Stats.Activations:
// proportional to the affected region, not to n.
package dynamic

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
)

// CanonicalColors returns the canonical coloring of g: every edge, in
// canonical edge-id (= lexicographic) order, takes the smallest color >= 1
// not used by a lexicographically smaller incident edge. This sequential
// recompute is the ground truth the Maintainer's incrementally repaired
// coloring is byte-compared against.
func CanonicalColors(g *graph.Graph) []int {
	colors := make([]int, g.M())
	used := make(map[int]bool)
	for id, e := range g.Edges() {
		clear(used)
		for _, w := range [2]int{e.U, e.V} {
			for _, f := range g.IncidentEdgeIDs(w) {
				if int(f) < id {
					used[colors[f]] = true
				}
			}
		}
		colors[id] = mex(used)
	}
	return colors
}

// mex returns the smallest color >= 1 not marked used.
func mex(used map[int]bool) int {
	for c := 1; ; c++ {
		if !used[c] {
			return c
		}
	}
}

// CanonicalRun computes CanonicalColors(g) as a distributed run: every edge
// is treated as dirty with no external constraints, so the repair algorithm
// degenerates to the full canonical computation. Returns the merged per-edge
// colors and the run's cost.
func CanonicalRun(g *graph.Graph, opts ...dist.Option) ([]int, dist.Stats, error) {
	res, err := dist.RunAlgo(g, repairBundle(g, make([][]int, g.M())), opts...)
	if err != nil {
		return nil, dist.Stats{}, err
	}
	colors, err := graph.MergePortColors(g, res.Outputs)
	if err != nil {
		return nil, dist.Stats{}, err
	}
	if err := graph.CheckEdgeColoring(g, colors); err != nil {
		return nil, dist.Stats{}, fmt.Errorf("dynamic: canonical run produced an illegal coloring: %w", err)
	}
	return colors, res.Stats, nil
}
