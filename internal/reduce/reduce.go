// Package reduce provides two elementary color-manipulation primitives:
//
//   - ReduceColors: the classic one-class-per-round palette reduction. Given
//     a legal k-coloring of a (sub)graph with degree bound d, it produces a
//     legal (d+1)-coloring in k−(d+1) rounds. Combined with Linial's O(Δ²)
//     coloring it substitutes for the Lemma 2.1(2) leaf subroutine of
//     Procedure Legal-Color (substitution N1 in DESIGN.md).
//
//   - ColorByOrientation: the Lemma 3.4 process — given an acyclic
//     orientation with out-degree ≤ d, vertices wait for all out-neighbors
//     and then pick a free color, producing a legal (d+1)-coloring in
//     (longest directed path + 1) rounds. This is the algorithm illustrated
//     by Figure 2 of the paper.
package reduce

import (
	"repro/internal/dist"
	"repro/internal/wire"
)

// ReduceColors reduces a legal coloring with palette {1..k} on the active
// subgraph (nil mask = all ports) to a legal coloring with palette
// {1..target}. target must exceed the active-subgraph degree of every
// vertex. It costs exactly max(0, k-target) rounds; all vertices must call
// it with identical k and target.
func ReduceColors(v dist.Process, myColor, k, target int, active []bool) int {
	deg := v.Deg()
	nbr := make([]int, deg) // last known neighbor colors (0 = unknown)
	for c := k; c > target; c-- {
		// Everyone broadcasts its current color on active ports, then the
		// top class recolors greedily.
		out := make([][]byte, deg)
		msg := wire.EncodeInts(myColor)
		for p := 0; p < deg; p++ {
			if active == nil || active[p] {
				out[p] = msg
			}
		}
		in := v.Round(out)
		for p := 0; p < deg; p++ {
			if in[p] == nil {
				continue
			}
			val, err := wire.DecodeInt(in[p])
			if err != nil {
				panic("reduce: bad color message: " + err.Error())
			}
			nbr[p] = val
		}
		if myColor == c {
			myColor = smallestFree(nbr, active, target)
		}
	}
	return myColor
}

// smallestFree returns the smallest color in {1..limit} unused by active
// neighbors. The caller guarantees fewer than limit active neighbors.
func smallestFree(nbr []int, active []bool, limit int) int {
	used := make([]bool, limit+1)
	for p, c := range nbr {
		if (active == nil || active[p]) && c >= 1 && c <= limit {
			used[c] = true
		}
	}
	for c := 1; c <= limit; c++ {
		if !used[c] {
			return c
		}
	}
	panic("reduce: no free color; degree bound violated")
}

// ColorByOrientation implements Lemma 3.4: isOut marks the ports of edges
// oriented away from this vertex (toward its "parents"); the orientation
// must be acyclic with out-degree at most d. Each vertex waits until every
// out-neighbor announced its color, picks the smallest color in {1..d+1} not
// used by them, announces it once, and halts. The makespan is the longest
// directed path length + 1.
func ColorByOrientation(v dist.Process, isOut []bool, d int) int {
	deg := v.Deg()
	needed := 0
	for _, o := range isOut {
		if o {
			needed++
		}
	}
	outColors := make([]int, deg) // colors of out-neighbors (0 = unknown)
	have := 0
	myColor := 0
	if needed == 0 {
		myColor = 1
	}
	for {
		if myColor != 0 {
			// Announce and retire.
			v.Broadcast(wire.EncodeInts(myColor))
			return myColor
		}
		in := v.Round(nil)
		for p := 0; p < deg; p++ {
			if isOut[p] && outColors[p] == 0 && in[p] != nil {
				val, err := wire.DecodeInt(in[p])
				if err != nil {
					panic("reduce: bad color message: " + err.Error())
				}
				outColors[p] = val
				have++
			}
		}
		if have == needed {
			myColor = smallestFreeOut(outColors, isOut, d+1)
		}
	}
}

func smallestFreeOut(outColors []int, isOut []bool, limit int) int {
	used := make([]bool, limit+1)
	for p, c := range outColors {
		if isOut[p] && c >= 1 && c <= limit {
			used[c] = true
		}
	}
	for c := 1; c <= limit; c++ {
		if !used[c] {
			return c
		}
	}
	panic("reduce: out-degree exceeds bound")
}
