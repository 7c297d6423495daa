package baseline

import (
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/wire"
)

// RandomizedTrialEdgeColoring is the classic randomized (2Δ−1)-edge-coloring
// by repeated trials, the Table-2 stand-in for the randomized competitors
// [29],[18] (substitution N2): in every iteration, the smaller-ID endpoint
// of each uncolored edge proposes a uniformly random color among those still
// free at its side; a proposal sticks iff it is unique among this round's
// proposals at both endpoints and free at both endpoints. Each iteration
// takes 2 rounds and colors each edge with constant probability, so the
// algorithm finishes in Θ(log m) iterations with high probability — round
// complexity independent of Δ but logarithmic in the graph size, which is
// exactly the qualitative profile Table 2 contrasts with the paper's
// O(log Δ)+log* n deterministic bound.
func RandomizedTrialEdgeColoring(g *graph.Graph, opts ...dist.Option) (*dist.Result[[]int], error) {
	return dist.Run(g, trialEdgeVertex, opts...)
}

func trialEdgeVertex(v dist.Process) []int {
	deg, id := v.Deg(), v.ID()
	palette := 2*v.MaxDegree() - 1
	if palette < 1 {
		palette = 1
	}
	colors := make([]int, deg)
	used := make([]bool, palette+2)
	remaining := deg
	rng := v.Rand()

	for remaining > 0 {
		// Round 1: owners draw and send proposals.
		proposals := make([]int, deg)
		out := make([][]byte, deg)
		for p := 0; p < deg; p++ {
			if colors[p] != 0 || id > v.NeighborID(p) {
				continue
			}
			c := drawFree(rng, used, palette)
			proposals[p] = c
			out[p] = wire.EncodeInts(c)
		}
		in := v.Round(out)
		for p := 0; p < deg; p++ {
			if colors[p] == 0 && id > v.NeighborID(p) && in[p] != nil {
				val, err := wire.DecodeInt(in[p])
				if err != nil {
					panic("baseline: bad proposal: " + err.Error())
				}
				proposals[p] = val
			}
		}
		// Local verdicts: a proposal survives at this vertex iff it is
		// unique among this round's proposals here and not already used.
		count := make(map[int]int, deg)
		for p := 0; p < deg; p++ {
			if colors[p] == 0 && proposals[p] != 0 {
				count[proposals[p]]++
			}
		}
		// Round 2: exchange verdicts (1 = ok on my side).
		out2 := make([][]byte, deg)
		myOK := make([]bool, deg)
		for p := 0; p < deg; p++ {
			if colors[p] == 0 && proposals[p] != 0 {
				ok := count[proposals[p]] == 1 && !used[proposals[p]]
				myOK[p] = ok
				if ok {
					out2[p] = wire.EncodeInts(1)
				} else {
					out2[p] = wire.EncodeInts(0)
				}
			}
		}
		in2 := v.Round(out2)
		for p := 0; p < deg; p++ {
			if colors[p] != 0 || proposals[p] == 0 || in2[p] == nil {
				continue
			}
			val, err := wire.DecodeInt(in2[p])
			if err != nil {
				panic("baseline: bad verdict: " + err.Error())
			}
			if myOK[p] && val == 1 {
				colors[p] = proposals[p]
				used[proposals[p]] = true
				remaining--
			}
		}
	}
	return colors
}

// drawFree samples a uniform color among {1..palette} minus the used set.
// At most deg-1 <= palette-... colors are used while an edge remains, so a
// free color always exists.
func drawFree(rng interface{ Intn(int) int }, used []bool, palette int) int {
	free := 0
	for c := 1; c <= palette; c++ {
		if !used[c] {
			free++
		}
	}
	k := rng.Intn(free)
	for c := 1; c <= palette; c++ {
		if !used[c] {
			if k == 0 {
				return c
			}
			k--
		}
	}
	panic("baseline: no free color")
}
