package baseline

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/reduce"
	"repro/internal/wire"
)

// HPartitionColoring is the Table-1 stand-in for the forest-decomposition
// algorithms of [3],[5] (substitution N3 in DESIGN.md). It computes the
// H-partition of [3]: peel, for O(log n) rounds, every vertex whose residual
// degree is at most theta into the current level; for theta ≥ (2+ε)·a(G)
// at least an ε/(2+ε) fraction of the remaining vertices peels each round,
// so the number of levels is O(log n) — and by the Ω(log n / log a) lower
// bound of [3] this dependence is inherent to the approach, which is the
// very reason the paper's log n–free algorithms win Table 1 at large n.
// The level subgraphs (each of degree ≤ theta) are then Linial-colored in
// parallel with disjoint palettes.
//
// Guarantees: palette ≤ levels·O(theta²); rounds = levels + O(log* n).
func HPartitionColoring(g *graph.Graph, theta int, opts ...dist.Option) (*dist.Result[int], error) {
	if theta < 1 {
		return nil, fmt.Errorf("baseline: theta=%d must be positive", theta)
	}
	n := g.N()
	maxLevels := log2(n) + 2
	// Per-level palette: the Linial fixed point for degree bound theta.
	steps := linial.LegalSchedule(n, theta)
	perLevel := linial.FinalPalette(n, steps)
	res, err := dist.Run(g, func(v dist.Process) int {
		level := hPartition(v, theta, maxLevels)
		// Color the level subgraph: neighbors in the same level only.
		same := sameLevelMask(v, level)
		c := linial.RunChain(steps, v.ID(), func(own int) []int {
			return maskedInts(v, same, own)
		})
		return (level-1)*perLevel + c
	}, opts...)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// HPartitionPalette returns the palette bound of HPartitionColoring.
func HPartitionPalette(g *graph.Graph, theta int) int {
	n := g.N()
	steps := linial.LegalSchedule(n, theta)
	return (log2(n) + 2) * linial.FinalPalette(n, steps)
}

// hPartition peels the vertex into its H-partition level: one round per
// level, run in lockstep by all vertices for exactly maxLevels rounds (the
// theory's level bound — distributed termination detection would cost
// diameter time, and the fixed schedule is what [3] prescribes). A vertex
// retires at the first level where at most theta of its neighbors are still
// active, announcing the retirement to the survivors.
func hPartition(v dist.Process, theta, maxLevels int) int {
	deg := v.Deg()
	activeNbrs := deg
	active := make([]bool, deg)
	for p := range active {
		active[p] = true
	}
	myLevel := 0
	for l := 1; l <= maxLevels; l++ {
		out := make([][]byte, deg)
		if myLevel == 0 && activeNbrs <= theta {
			myLevel = l
			msg := wire.EncodeInts(l)
			for p := 0; p < deg; p++ {
				if active[p] {
					out[p] = msg
				}
			}
		}
		in := v.Round(out)
		for p := 0; p < deg; p++ {
			if !active[p] || in[p] == nil {
				continue
			}
			if _, err := wire.DecodeInt(in[p]); err != nil {
				panic("baseline: bad level message: " + err.Error())
			}
			active[p] = false
			activeNbrs--
		}
	}
	if myLevel == 0 {
		// The peeling argument guarantees termination within maxLevels when
		// theta >= 4·degeneracy (DefaultTheta); flag misuse loudly.
		panic(fmt.Sprintf("baseline: vertex id %d not peeled after %d levels (theta=%d too small)",
			v.ID(), maxLevels, theta))
	}
	return myLevel
}

// sameLevelMask exchanges levels once and masks the same-level ports.
func sameLevelMask(v dist.Process, level int) []bool {
	deg := v.Deg()
	in := v.Broadcast(wire.EncodeInts(level))
	same := make([]bool, deg)
	for p := 0; p < deg; p++ {
		if in[p] == nil {
			continue
		}
		val, err := wire.DecodeInt(in[p])
		if err != nil {
			panic("baseline: bad level message: " + err.Error())
		}
		same[p] = val == level
	}
	return same
}

func maskedInts(v dist.Process, mask []bool, own int) []int {
	deg := v.Deg()
	out := make([][]byte, deg)
	msg := wire.EncodeInts(own)
	for p := 0; p < deg; p++ {
		if mask[p] {
			out[p] = msg
		}
	}
	in := v.Round(out)
	var nbrs []int
	for p := 0; p < deg; p++ {
		if mask[p] && in[p] != nil {
			val, err := wire.DecodeInt(in[p])
			if err != nil {
				panic("baseline: bad color message: " + err.Error())
			}
			nbrs = append(nbrs, val)
		}
	}
	return nbrs
}

// ArbColoring is the palette-efficient member of the [3]/[5] forest-
// decomposition family (Procedure Arb-Color of [3]): after the H-partition,
// levels are processed from the last down. When a vertex of level ℓ picks
// its color, the only colored neighbors are those of level ≥ ℓ (or same
// level, earlier schedule slot) — at most theta of them, because exactly
// those neighbors were still active at the vertex's retirement — so the
// palette {1..theta+1} always suffices: O(a) colors in total. Within a
// level, vertices act in the slot order of a (theta+1)-coloring of the
// level subgraph (Linial + KW merging), one independent slot per round.
// Rounds: Θ(levels·theta) after the per-level coloring — the inherent
// Θ(log n) factor of the forest-decomposition approach, with a palette
// matching [3] rather than the θ²·log n of HPartitionColoring.
func ArbColoring(g *graph.Graph, theta int, opts ...dist.Option) (*dist.Result[int], error) {
	if theta < 1 {
		return nil, fmt.Errorf("baseline: theta=%d must be positive", theta)
	}
	n := g.N()
	maxLevels := log2(n) + 2
	steps := linial.LegalSchedule(n, theta)
	linialK := linial.FinalPalette(n, steps)
	classes := theta + 1
	return dist.Run(g, func(v dist.Process) int {
		level := hPartition(v, theta, maxLevels)
		nbrLevel := exchangeOnce(v, level)
		same := make([]bool, v.Deg())
		for p := range same {
			same[p] = nbrLevel[p] == level
		}
		// Slot order within the level subgraph: Linial to O(theta²), then
		// KW merging down to theta+1 slots.
		ord := linial.RunChain(steps, v.ID(), func(own int) []int {
			return maskedInts(v, same, own)
		})
		ord = reduce.KWReduceColors(v, ord, linialK, classes, same)
		// Process levels from last to first; within a level, Linial classes
		// one round each. Every vertex participates in every round
		// (lockstep); only the scheduled class picks its final color.
		myColor := 0
		nbrColor := make([]int, v.Deg())
		for l := maxLevels; l >= 1; l-- {
			for cls := 1; cls <= classes; cls++ {
				pick := level == l && ord == cls
				if pick {
					myColor = arbFree(nbrColor, theta+1)
				}
				out := make([][]byte, v.Deg())
				if pick {
					msg := wire.EncodeInts(myColor)
					for p := range out {
						out[p] = msg
					}
				}
				in := v.Round(out)
				for p := 0; p < v.Deg(); p++ {
					if in[p] != nil {
						val, err := wire.DecodeInt(in[p])
						if err != nil {
							panic("baseline: bad color message: " + err.Error())
						}
						nbrColor[p] = val
					}
				}
			}
		}
		if myColor == 0 {
			panic("baseline: vertex left uncolored (level/class bookkeeping bug)")
		}
		return myColor
	}, opts...)
}

// arbFree returns the smallest color in {1..limit} unused by neighbors.
func arbFree(nbrColor []int, limit int) int {
	used := make([]bool, limit+1)
	for _, c := range nbrColor {
		if c >= 1 && c <= limit {
			used[c] = true
		}
	}
	for c := 1; c <= limit; c++ {
		if !used[c] {
			return c
		}
	}
	panic("baseline: no free color; theta bound violated")
}

// exchangeOnce broadcasts one integer and returns the per-port replies.
func exchangeOnce(v dist.Process, x int) []int {
	in := v.Broadcast(wire.EncodeInts(x))
	out := make([]int, v.Deg())
	for p := range out {
		if in[p] == nil {
			continue
		}
		val, err := wire.DecodeInt(in[p])
		if err != nil {
			panic("baseline: bad message: " + err.Error())
		}
		out[p] = val
	}
	return out
}

// DefaultTheta returns a peeling threshold that terminates within
// log2(n)+2 levels: 4·(degeneracy+1) ≥ 4·a(G), so at least half of the
// remaining vertices peel each level (2m_H/theta ≤ 2a·n_H/4a = n_H/2). The
// degeneracy is computed centrally here; a distributed deployment would use
// global knowledge of the arboricity, as [3] assumes.
func DefaultTheta(g *graph.Graph) int {
	_, degeneracy := graph.ArboricityBounds(g)
	return 4 * (degeneracy + 1)
}

func log2(n int) int {
	l := 0
	for ; n > 1; n >>= 1 {
		l++
	}
	return l
}
