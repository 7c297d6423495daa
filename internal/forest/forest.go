// Package forest implements rooted-forest machinery used by the
// Panconesi–Rizzi (2Δ−1)-edge-coloring [24]: decomposition of an
// ID-oriented graph into edge-disjoint rooted forests, and the
// Cole–Vishkin-style deterministic 3-coloring of all forests in parallel in
// O(log* n) rounds (bit reduction to 6 colors, then shift-down to 3).
//
// All routines here are per-vertex subroutines meant to be called from
// inside a dist vertex function; many logical forests share each physical
// edge-disjointly, so running them in parallel costs no extra rounds.
// Per-vertex state is proportional to the vertex degree, not to the global
// number of forests (which the §5 recursion makes as large as p^r·Λ).
package forest

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/dist"
	"repro/internal/wire"
)

// NoForest marks a port that belongs to no forest.
const NoForest = 0

// Membership describes, for one vertex, how its ports map onto the forests
// it belongs to. Forests carry global integer ids (agreed by both endpoints
// of every edge); a vertex's parent in forest f is reached through its
// unique out-port labeled f, and its children are the in-ports labeled f.
// Per-forest data is indexed by a forest's position in Forests (its forest
// index), so the hot paths never look a forest id up.
type Membership struct {
	Forests   []int // sorted global ids of forests present at this vertex
	PortLabel []int // per port: forest id, or NoForest
	// PortForest holds, per port, the forest index of its forest, or -1
	// on a port that belongs to no forest.
	PortForest []int
	// Parent holds, per forest index, the port leading to this vertex's
	// parent in that forest, or -1 where the vertex is a root.
	Parent []int
}

// ForestIndex returns the index of forest fid in Forests, or -1 if the
// vertex has no edge in it.
func (m *Membership) ForestIndex(fid int) int {
	if i, ok := slices.BinarySearch(m.Forests, fid); ok {
		return i
	}
	return -1
}

// ParentPortOf returns the port leading to this vertex's parent in forest
// fid, or -1 if the vertex is a root of (or absent from) that forest.
func (m *Membership) ParentPortOf(fid int) int {
	if i := m.ForestIndex(fid); i >= 0 {
		return m.Parent[i]
	}
	return -1
}

// AssignLabels runs the one-round forest decomposition: every vertex labels
// its out-edges (ports whose neighbor has a smaller identifier, restricted
// to active ports) with distinct labels 1..outdeg, sends each label across
// its edge, and learns the labels of its in-edges. The result partitions the
// active edges into at most degBound rooted forests (ids 1..degBound): each
// vertex has at most one out-edge per label, and following out-edges
// strictly decreases identifiers, so every label class is a forest rooted at
// local ID minima.
//
// active may be nil (all ports active). Costs exactly one round.
func AssignLabels(v dist.Process, active []bool, degBound int) Membership {
	classOf := make([]int, v.Deg())
	for port := range classOf {
		if active == nil || active[port] {
			classOf[port] = 1
		}
	}
	return AssignLabelsClasses(v, classOf, degBound)
}

// Present returns the distinct nonzero entries of a per-port table in
// increasing order: the classes (of a classOf table) or the forests (of
// PortLabel) present at a vertex.
func Present(perPort []int) []int {
	ids := make([]int, 0, len(perPort))
	for _, id := range perPort {
		if id != 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// AssignLabelsClasses is the multi-class generalization used by the edge
// variant of Procedure Legal-Color (§5): ports are partitioned into
// edge-disjoint classes (classOf[port] >= 1, 0 = inactive), each class
// having degree at most degBound at every vertex. Each class is decomposed
// into degBound forests exactly as AssignLabels does, with the forest of
// class c and within-class label ℓ getting the global id (c−1)·degBound+ℓ.
// All classes share the single labeling round; both endpoints of an edge
// agree on its class, so they agree on its forest id.
func AssignLabelsClasses(v dist.Process, classOf []int, degBound int) Membership {
	deg := v.Deg()
	m := Membership{PortLabel: make([]int, deg), PortForest: make([]int, deg)}
	classes := Present(classOf)
	outDeg := make([]int, len(classes)) // labels used so far, per class
	var out [][]byte
	var buf []byte // this round's label messages, sliced per port
	for port := 0; port < deg; port++ {
		c := classOf[port]
		if c == 0 {
			continue
		}
		if v.NeighborID(port) < v.ID() { // out-edge: neighbor is the parent
			i, _ := slices.BinarySearch(classes, c)
			outDeg[i]++
			if outDeg[i] > degBound {
				panic("forest: class out-degree exceeds degBound")
			}
			fid := (c-1)*degBound + outDeg[i]
			m.PortLabel[port] = fid
			if out == nil {
				out = make([][]byte, deg)
				buf = make([]byte, 0, deg*binary.MaxVarintLen64)
			}
			n := len(buf)
			buf = wire.AppendInt(buf, fid)
			out[port] = buf[n:len(buf):len(buf)]
		}
	}
	in := v.Round(out)
	for port := 0; port < deg; port++ {
		if classOf[port] == 0 {
			continue
		}
		if v.NeighborID(port) > v.ID() { // in-edge: the child told us its label
			fid, err := wire.DecodeInt(in[port])
			if err != nil {
				panic("forest: bad label message: " + err.Error())
			}
			m.PortLabel[port] = fid
		}
	}
	m.Forests = Present(m.PortLabel)
	m.Parent = make([]int, len(m.Forests))
	for i := range m.Parent {
		m.Parent[i] = -1
	}
	for port, fid := range m.PortLabel {
		m.PortForest[port] = -1
		if fid == NoForest {
			continue
		}
		i, _ := slices.BinarySearch(m.Forests, fid)
		m.PortForest[port] = i
		if v.NeighborID(port) < v.ID() {
			m.Parent[i] = port
		}
	}
	return m
}

// CVRounds returns the number of bit-reduction rounds of the Cole–Vishkin
// phase for identifier space {1..n}; every vertex computes the same value
// locally so all forests stay in lockstep.
func CVRounds(n int) int {
	rounds := 0
	k := n
	for k > 6 {
		k = nextPalette(k)
		rounds++
	}
	return rounds
}

// nextPalette maps palette size k to 2*ceil(log2 k), the palette after one
// bit-reduction round.
func nextPalette(k int) int {
	return 2 * ceilLog2(k)
}

func ceilLog2(k int) int {
	if k <= 1 {
		return 1
	}
	return bits.Len(uint(k - 1))
}

// ShiftDownIterations is the number of (shift-down, recolor) iterations that
// reduce 6 colors to 3.
const ShiftDownIterations = 3

// TotalRounds returns the full round cost of ThreeColor for n identifiers:
// the bit-reduction phase plus two rounds per shift-down iteration.
func TotalRounds(n int) int { return CVRounds(n) + 2*ShiftDownIterations }

// ThreeColor 3-colors the vertices of every forest simultaneously: the
// returned slice holds, per forest index of m (see Membership), the
// vertex's color in that forest, in {1,2,3}. Costs exactly
// TotalRounds(v.N()) rounds for every vertex (lockstep), independent of the
// forests' shapes and count.
func ThreeColor(v dist.Process, m Membership) []int {
	colors := make([]int, len(m.Forests)) // 0-based during reduction
	for i := range colors {
		colors[i] = v.ID() - 1
	}
	x := &exchange{out: make([][]byte, v.Deg()), res: make([]int, v.Deg())}
	// Phase 1: bit reduction. Every vertex sends, on every forest port, its
	// current color in that forest; children combine with the parent color.
	for r := 0; r < CVRounds(v.N()); r++ {
		all := x.run(v, m, colors)
		for i, p := range m.Parent {
			if p >= 0 {
				colors[i] = cvStep(colors[i], all[p])
			} else {
				colors[i] &= 1 // root: (index 0, own bit 0)
			}
		}
	}
	// Normalize to 1..6.
	for i := range colors {
		colors[i]++
	}
	// Phase 2: three (shift-down, recolor) iterations remove colors 6, 5, 4.
	usedBy := make([]uint8, len(colors)) // recolor scratch: bit c = color c taken
	for c := 6; c >= 4; c-- {
		// Shift-down: every non-root adopts its parent's color; roots pick a
		// color in {1,2} different from their own, keeping siblings
		// monochromatic and the coloring proper.
		all := x.run(v, m, colors)
		for i, p := range m.Parent {
			if p >= 0 {
				colors[i] = all[p]
			} else if colors[i] == 1 {
				colors[i] = 2
			} else {
				colors[i] = 1
			}
		}
		// Recolor class c: its members form an independent set in each
		// forest; each picks the smallest color in {1,2,3} unused by its
		// parent and (shared) child color.
		all = x.run(v, m, colors)
		clear(usedBy)
		for port, i := range m.PortForest {
			if i >= 0 && colors[i] == c && all[port] >= 1 && all[port] <= 3 {
				usedBy[i] |= 1 << all[port]
			}
		}
		for i := range colors {
			if colors[i] != c {
				continue
			}
			for k := 1; k <= 3; k++ {
				if usedBy[i]&(1<<k) == 0 {
					colors[i] = k
					break
				}
			}
		}
	}
	return colors
}

// cvStep computes the Cole–Vishkin bit-reduction color: the index of the
// lowest bit where own and parent differ, paired with own's bit there.
func cvStep(own, parent int) int {
	diff := own ^ parent
	i := bits.TrailingZeros(uint(diff))
	return 2*i + (own>>i)&1
}

// exchange is ThreeColor's round scratch: one outbox and one result slice
// serve every round.
type exchange struct {
	out [][]byte // per port: this round's color message, nil off the forests
	res []int    // per port: the neighbor's color, -1 where absent
}

// run sends, on every forest port, this vertex's color in that port's
// forest, and returns the neighbor's color per port (-1 where absent). The
// result is valid until the next run.
func (x *exchange) run(v dist.Process, m Membership, colors []int) []int {
	buf := make([]byte, 0, len(x.out)*binary.MaxVarintLen64) // this round's messages
	for port, i := range m.PortForest {
		if i >= 0 {
			n := len(buf)
			buf = wire.AppendInt(buf, colors[i])
			x.out[port] = buf[n:len(buf):len(buf)]
		}
	}
	in := v.Round(x.out)
	for port, i := range m.PortForest {
		x.res[port] = -1
		if i < 0 || in[port] == nil {
			continue
		}
		c, err := wire.DecodeInt(in[port])
		if err != nil {
			panic("forest: bad color message: " + err.Error())
		}
		x.res[port] = c
	}
	return x.res
}
