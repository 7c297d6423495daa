// Package baseline implements the competitor algorithms of Tables 1 and 2:
//
//   - greedy ID-priority coloring (folklore; serves as a correctness oracle
//     and as the naive O(n)-round baseline),
//   - randomized trial edge coloring (the stand-in for the randomized
//     competitors [29],[18] of Table 2 — substitution N2 in DESIGN.md),
//   - an H-partition/forest-decomposition coloring in the style of [3],[5]
//     whose Θ(log n) round dependence is inherent (substitution N3) — the
//     Table 1 large-Δ competitor.
//
// (Panconesi–Rizzi, the remaining baseline, lives in package panconesi
// because the §5 recursion leaf also uses it.)
package baseline

import (
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/wire"
)

// GreedyVertexColoring colors vertices with palette {1..Δ+1} by ID priority:
// every vertex waits until all smaller-ID neighbors are colored, then takes
// the smallest free color. Its round complexity is the longest increasing-ID
// path, up to n; it is the classic correctness oracle.
func GreedyVertexColoring(g *graph.Graph, opts ...dist.Option) (*dist.Result[int], error) {
	return dist.Run(g, GreedyVertexProcess, opts...)
}

// GreedyVertexProcess is the per-vertex body of GreedyVertexColoring,
// exported for callers that execute on a reusable dist.Runner or dist.Pool.
func GreedyVertexProcess(v dist.Process) int {
	deg := v.Deg()
	waiting := 0
	for p := 0; p < deg; p++ {
		if v.NeighborID(p) < v.ID() {
			waiting++
		}
	}
	used := make([]bool, v.MaxDegree()+2)
	for {
		if waiting == 0 {
			c := 1
			for used[c] {
				c++
			}
			v.Broadcast(wire.EncodeInts(c))
			return c
		}
		in := v.Round(nil)
		for p := 0; p < deg; p++ {
			if in[p] == nil || v.NeighborID(p) > v.ID() {
				continue
			}
			val, err := wire.DecodeInt(in[p])
			if err != nil {
				panic("baseline: bad color message: " + err.Error())
			}
			used[val] = true
			waiting--
		}
	}
}

// GreedyEdgeColoring colors edges with palette {1..2Δ−1} by lexicographic
// edge priority ⟨smaller endpoint id, larger endpoint id⟩: the smaller-ID
// endpoint of an edge decides its color once every higher-priority incident
// edge (at either endpoint) is colored, taking the smallest color free at
// both endpoints. The naive baseline with worst-case Θ(n)-round chains.
// Returns per-port colors (merge with graph.MergePortColors).
func GreedyEdgeColoring(g *graph.Graph, opts ...dist.Option) (*dist.Result[[]int], error) {
	return dist.Run(g, GreedyEdgeProcess, opts...)
}

// GreedyEdgeProcess is the per-vertex body of GreedyEdgeColoring, exported
// for callers that execute on a reusable dist.Runner or dist.Pool.
func GreedyEdgeProcess(v dist.Process) []int { return greedyEdgeVertex(v) }

// edgeKey orders edges by ⟨min id, max id⟩.
type edgeKey struct{ lo, hi int }

func (k edgeKey) less(o edgeKey) bool {
	if k.lo != o.lo {
		return k.lo < o.lo
	}
	return k.hi < o.hi
}

func greedyEdgeVertex(v dist.Process) []int {
	deg, id := v.Deg(), v.ID()
	keys := make([]edgeKey, deg)
	owner := make([]bool, deg) // do we decide this edge's color?
	for p := 0; p < deg; p++ {
		nid := v.NeighborID(p)
		lo, hi := id, nid
		if lo > hi {
			lo, hi = hi, lo
		}
		keys[p] = edgeKey{lo, hi}
		owner[p] = id < nid
	}
	colors := make([]int, deg)
	myUsed := make(map[int]bool, deg)
	pending := make([]int, deg) // decided colors not yet announced
	remaining := deg

	// sideReady reports whether every edge at this vertex with a smaller key
	// than port p's edge is already colored.
	sideReady := func(p int) bool {
		for q := 0; q < deg; q++ {
			if q != p && colors[q] == 0 && keys[q].less(keys[p]) {
				return false
			}
		}
		return true
	}

	for remaining > 0 || anyPending(pending) {
		out := make([][]byte, deg)
		for p := 0; p < deg; p++ {
			switch {
			case pending[p] != 0: // owner: announce the decision
				out[p] = wire.EncodeInts(pending[p])
				pending[p] = 0
			case colors[p] == 0 && !owner[p]: // report status to the owner
				var w wire.Writer
				if sideReady(p) {
					w.Uint(1)
				} else {
					w.Uint(0)
				}
				w.Ints(usedSlice(myUsed))
				out[p] = w.Bytes()
			}
		}
		in := v.Round(out)
		for p := 0; p < deg; p++ {
			if colors[p] != 0 || in[p] == nil {
				continue
			}
			if owner[p] {
				r := wire.NewReader(in[p])
				ready := r.Uint()
				theirUsed := r.Ints()
				if r.Err() != nil {
					panic("baseline: bad report: " + r.Err().Error())
				}
				if ready == 1 && sideReady(p) {
					c := firstFreeOf(myUsed, theirUsed)
					colors[p] = c
					myUsed[c] = true
					pending[p] = c
					remaining--
				}
			} else {
				val, err := wire.DecodeInt(in[p])
				if err != nil {
					panic("baseline: bad announcement: " + err.Error())
				}
				colors[p] = val
				myUsed[val] = true
				remaining--
			}
		}
	}
	return colors
}

func anyPending(pending []int) bool {
	for _, c := range pending {
		if c != 0 {
			return true
		}
	}
	return false
}

func usedSlice(s map[int]bool) []int {
	out := make([]int, 0, len(s))
	for c := range s {
		out = append(out, c)
	}
	return out
}

func firstFreeOf(mine map[int]bool, theirs []int) int {
	theirSet := make(map[int]bool, len(theirs))
	for _, c := range theirs {
		theirSet[c] = true
	}
	for c := 1; ; c++ {
		if !mine[c] && !theirSet[c] {
			return c
		}
	}
}
