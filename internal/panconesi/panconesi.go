// Package panconesi implements the Panconesi–Rizzi deterministic
// (2Δ−1)-edge-coloring [24], which the paper uses both as the prior
// state-of-the-art baseline (Tables 1 and 2: O(Δ) + log* n rounds) and as
// the bottom-of-recursion subroutine of the §5 edge-coloring variant of
// Procedure Legal-Color.
//
// Algorithm: decompose the (sub)graph into degBound edge-disjoint rooted
// forests by labeling out-edges of the ID orientation (1 round); 3-color the
// vertices of every forest in parallel with Cole–Vishkin (O(log* n) rounds);
// then, for each forest ℓ and each forest-color j, let every vertex u with
// color j in forest ℓ assign greedy colors to all of its child edges in ℓ,
// avoiding the colors already used at either endpoint. Vertices with color j
// form an independent set in forest ℓ and child edges of distinct such
// vertices share no endpoint, so all assignments in a stage are conflict
// free; each edge sees at most 2·degBound−2 forbidden colors, so the palette
// {1..2·degBound−1} always suffices. Total: O(degBound) + O(log* n) rounds.
//
// The multi-class form colors many edge-disjoint subgraphs ("classes") at
// once, each with its own palette {1..2·degBound−1}; classes proceed in
// lockstep through the same stages, so the round cost does not grow with the
// number of classes — exactly the property the recursion leaf of §5 needs.
package panconesi

import (
	"math/bits"
	"slices"

	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/wire"
)

// stages is the number of forest-color stages per forest (3-coloring).
const stages = 3

// Rounds returns the exact round cost of EdgeColorStep/EdgeColorMulti for an
// n-vertex network with the given degree bound: 1 labeling round, the forest
// 3-coloring, and 2 rounds per (within-class forest, color) stage.
func Rounds(n, degBound int) int {
	return 1 + forest.TotalRounds(n) + 2*stages*degBound
}

// EdgeColorStep computes a legal (2·degBound−1)-edge-coloring of the
// subgraph formed by the active ports (nil = all ports). degBound must be a
// degree bound of that subgraph shared by all vertices. It returns the color
// of each port (0 on inactive ports); both endpoints of an edge return the
// same color for it. Every vertex spends exactly Rounds(v.N(), degBound)
// communication rounds.
func EdgeColorStep(v dist.Process, active []bool, degBound int) []int {
	classOf := make([]int, v.Deg())
	for port := range classOf {
		if active == nil || active[port] {
			classOf[port] = 1
		}
	}
	return EdgeColorMulti(v, classOf, degBound)
}

// EdgeColorMulti colors every class subgraph with its own palette
// {1..2·degBound−1} simultaneously: classOf[port] >= 1 assigns each edge to
// a class (0 = uncolored/ignored), both endpoints agreeing; every class must
// have degree ≤ degBound at every vertex.
func EdgeColorMulti(v dist.Process, classOf []int, degBound int) []int {
	m := forest.AssignLabelsClasses(v, classOf, degBound)
	s := newLeaf(v, m, classOf, degBound)
	s.fcolors = forest.ThreeColor(v, m)
	// Stage (ℓ, j) involves only label-ℓ ports: the next run of byLabel.
	// Each run of consecutive dead stages is spent in one dist.Idle.
	rest := s.byLabel
	idle := 0
	for l := 1; l <= degBound; l++ {
		n := 0
		for n < len(rest) && s.label(m.PortLabel[rest[n]]) == l {
			n++
		}
		for j := 1; j <= stages; j++ {
			if s.dead(rest[:n], j) {
				idle += 2
				continue
			}
			dist.Idle(v, idle)
			idle = 0
			s.runStage(rest[:n], j)
		}
		rest = rest[n:]
	}
	dist.Idle(v, idle)
	return s.colors
}

// leaf is one vertex's state through the greedy stages. Everything is
// slice-indexed: classes by their position in the sorted list of classes
// present at the vertex, forests by their Membership forest index, and
// each class's used colors by a bitmap over {1..2·degBound−1}.
type leaf struct {
	v        dist.Process
	m        forest.Membership
	fcolors  []int // per forest index: this vertex's forest color
	degBound int
	colors   []int // per port: the edge's color, 0 while uncolored
	class    []int // per port: class index, -1 on unclassed ports
	words    int   // bitmap words per class
	used     []uint64
	child    []uint64 // scratch bitmap: a child's reported used set
	byLabel  []int    // forest ports by within-class label ℓ, then port
	out      [][]byte // the one outbox every stage round reuses
}

func newLeaf(v dist.Process, m forest.Membership, classOf []int, degBound int) *leaf {
	deg := v.Deg()
	classes := forest.Present(classOf)
	words := (2*degBound + 63) / 64
	s := &leaf{
		v: v, m: m, degBound: degBound,
		colors:  make([]int, deg),
		class:   make([]int, deg),
		words:   words,
		used:    make([]uint64, len(classes)*words),
		child:   make([]uint64, words),
		byLabel: make([]int, 0, deg),
	}
	for port, c := range classOf {
		s.class[port] = -1
		if c != 0 {
			s.class[port], _ = slices.BinarySearch(classes, c)
		}
		if m.PortLabel[port] != forest.NoForest {
			s.byLabel = append(s.byLabel, port)
		}
	}
	// Stable: within a label, ports stay ascending — the order in which a
	// parent colors its children, which the greedy choices depend on.
	slices.SortStableFunc(s.byLabel, func(a, b int) int {
		return s.label(m.PortLabel[a]) - s.label(m.PortLabel[b])
	})
	return s
}

// label returns the within-class label ℓ of forest fid.
func (s *leaf) label(fid int) int { return (fid-1)%s.degBound + 1 }

// isParentPort reports whether port leads to this vertex's parent in the
// port's forest.
func (s *leaf) isParentPort(port int) bool {
	return s.m.Parent[s.m.PortForest[port]] == port
}

// usedOf returns the used-color bitmap of class index ci.
func (s *leaf) usedOf(ci int) []uint64 { return s.used[ci*s.words : (ci+1)*s.words] }

// dead reports whether stage (ℓ, j) is silent at this vertex: none of its
// label-ℓ ports is an uncolored parent edge (which would report its used
// set, then read its color) or an uncolored child edge in a forest where
// this vertex has color j (which would read a used set, then send a color).
// runStage's guards are exactly these, so a dead stage sends nothing and
// reads nothing, whatever arrives: its two rounds can be idled.
func (s *leaf) dead(ports []int, j int) bool {
	for _, p := range ports {
		if s.colors[p] == 0 && (s.isParentPort(p) || s.fcolors[s.m.PortForest[p]] == j) {
			return false
		}
	}
	return true
}

// runStage performs one (within-class label ℓ, forest-color j) stage across
// all classes: children report their class-local used sets upward; parents
// whose color in the (class, ℓ) forest is j greedily color child edges.
// ports are this vertex's label-ℓ ports, the only ones that carry traffic;
// a vertex with nothing to send passes a nil outbox.
func (s *leaf) runStage(ports []int, j int) {
	// Round 1: report used sets on uncolored parent edges of label ℓ.
	var buf []byte
	for _, p := range ports {
		if s.colors[p] == 0 && s.isParentPort(p) {
			n := len(buf)
			buf = appendSet(buf, s.usedOf(s.class[p]))
			s.stage(p, buf[n:len(buf):len(buf)])
		}
	}
	in := s.round(buf != nil, ports)
	// Round 2: parents with color j in the (class, ℓ) forest assign colors.
	buf = nil
	for _, p := range ports {
		if in[p] == nil || s.colors[p] != 0 || s.isParentPort(p) || s.fcolors[s.m.PortForest[p]] != j {
			continue
		}
		u := s.usedOf(s.class[p])
		s.readSet(in[p])
		cc := firstFree(u, s.child, 2*s.degBound-1)
		clear(s.child)
		s.colors[p] = cc
		u[cc/64] |= 1 << (cc % 64)
		n := len(buf)
		buf = wire.AppendInt(buf, cc)
		s.stage(p, buf[n:len(buf):len(buf)])
	}
	in2 := s.round(buf != nil, ports)
	// Record colors our parents picked for our parent edges.
	for _, p := range ports {
		if in2[p] == nil || s.colors[p] != 0 || !s.isParentPort(p) {
			continue
		}
		cc, err := wire.DecodeInt(in2[p])
		if err != nil {
			panic("panconesi: bad color message: " + err.Error())
		}
		s.colors[p] = cc
		s.usedOf(s.class[p])[cc/64] |= 1 << (cc % 64)
	}
}

// stage puts msg in the reused outbox on port p.
func (s *leaf) stage(p int, msg []byte) {
	if s.out == nil {
		s.out = make([][]byte, s.v.Deg())
	}
	s.out[p] = msg
}

// round runs one communication round: the staged outbox if sent, else a
// silent nil one. Only ports can hold staged messages; they are cleared
// after the round so the outbox is empty again for the next.
func (s *leaf) round(sent bool, ports []int) [][]byte {
	if !sent {
		return s.v.Round(nil)
	}
	in := s.v.Round(s.out)
	for _, p := range ports {
		s.out[p] = nil
	}
	return in
}

// readSet decodes a used-set message (Writer.Ints form) into s.child.
// Colors outside the bitmap cannot be the first free color, so they are
// dropped.
func (s *leaf) readSet(msg []byte) {
	r := wire.NewReader(msg)
	n := r.Uint()
	if n > uint64(r.Remaining()) { // each element takes >= 1 byte
		panic("panconesi: bad used-set message: " + wire.ErrTruncated.Error())
	}
	for i := uint64(0); i < n; i++ {
		if c := r.Int(); c > 0 && c < 64*len(s.child) {
			s.child[c/64] |= 1 << (c % 64)
		}
	}
	if r.Err() != nil {
		panic("panconesi: bad used-set message: " + r.Err().Error())
	}
}

// appendSet appends a used bitmap as a Writer.Ints message, ascending.
func appendSet(buf []byte, set []uint64) []byte {
	count := 0
	for _, w := range set {
		count += bits.OnesCount64(w)
	}
	buf = wire.AppendUint(buf, uint64(count))
	for wi, w := range set {
		for ; w != 0; w &= w - 1 {
			buf = wire.AppendInt(buf, wi*64+bits.TrailingZeros64(w))
		}
	}
	return buf
}

// firstFree returns the smallest color in 1..maxColor in neither bitmap.
// At most 2·degBound−2 colors are ever excluded, so one always exists while
// every class respects the degree bound.
func firstFree(used, childUsed []uint64, maxColor int) int {
	for wi := range used {
		free := ^(used[wi] | childUsed[wi])
		if wi == 0 {
			free &^= 1 // there is no color 0
		}
		if free != 0 {
			if c := wi*64 + bits.TrailingZeros64(free); c <= maxColor {
				return c
			}
			break
		}
	}
	panic("panconesi: no free color in palette; class degree bound violated")
}

// EdgeColoring runs the full Panconesi–Rizzi algorithm on g and returns the
// per-vertex port colorings (merge with graph.MergePortColors). The palette
// is {1..2Δ−1} and the round cost is O(Δ) + O(log* n).
func EdgeColoring(g *graph.Graph, opts ...dist.Option) (*dist.Result[[]int], error) {
	return dist.RunAlgo(g, Algo(g.MaxDegree()), opts...)
}
