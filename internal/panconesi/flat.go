package panconesi

import (
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Algo bundles EdgeColorStep on every port under degree bound degBound with
// its flat compiled form, byte-identical to it on every engine.
func Algo(degBound int) dist.Algo[[]int] {
	vertex := func(v dist.Process) []int { return EdgeColorStep(v, nil, degBound) }
	return dist.Algo[[]int]{Vertex: vertex, Compiled: flatAlgo{vertex: vertex, degBound: degBound}}
}

type flatAlgo struct {
	vertex   func(dist.Process) []int
	degBound int
}

func (a flatAlgo) RunCompiled(g *graph.Graph, env dist.CompiledEnv, out [][]int) (dist.Stats, error) {
	leaf := NewFlatLeaf(g, nil, a.degBound)
	if leaf == nil {
		return dist.CompileProcess(a.vertex).RunCompiled(g, env, out)
	}
	colors := make([]int, g.Offsets()[g.N()])
	t := env.NewTally()
	if err := leaf.Run(t, colors); err != nil {
		return t.Stats, err
	}
	graph.PortSlices(g, colors, out)
	return t.Stats, nil
}

// FlatLeaf is EdgeColorMulti for every vertex of a graph at once: the
// labeling round and the forest 3-coloring through forest.Flat, then the
// 3·degBound greedy stages as two passes each over the forest edges of the
// stage's label. Every round and staged message is replayed through a
// dist.Tally, so Stats and round-cap errors equal the per-vertex form's.
type FlatLeaf struct {
	f        *forest.Flat
	n        int // vertices: every one takes part in every round
	degBound int
	words    int
	used     []uint64 // per class node: bitmap of the colors used there
	count    []int    // per class node: colors in used
	bytes    []int    // per class node: Σ wire.IntLen over used
	byLabel  []int32  // parent-side forest slots by within-class label, then slot
	labelEnd []int32  // label ℓ's slots are byLabel[labelEnd[ℓ-1]:labelEnd[ℓ]]
}

// NewFlatLeaf prepares the leaf over a per-slot class table (see
// EdgeColorMulti; classOf[s] >= 1 assigns slot s's edge to a class, 0
// leaves it uncolored; nil puts every edge in class 1, as EdgeColorStep
// does for a nil mask). It returns nil, having run nothing, on a table the
// per-vertex form is not guaranteed to color: an edge whose endpoints
// disagree on its class, or a class degree above degBound at some vertex
// (where the per-vertex form may panic). Callers fall back to interpreting
// the per-vertex form there.
func NewFlatLeaf(g *graph.Graph, classOf []int, degBound int) *FlatLeaf {
	if classOf == nil {
		classOf = make([]int, g.Offsets()[g.N()])
		for s := range classOf {
			classOf[s] = 1
		}
	}
	f, ok := forest.NewFlat(g, classOf, degBound)
	if !ok {
		return nil
	}
	l := &FlatLeaf{f: f, n: g.N(), degBound: degBound, words: (2*degBound + 63) / 64}
	l.count = make([]int, f.ClassNodes)
	for _, cn := range f.ClassNode {
		if cn < 0 {
			continue
		}
		if l.count[cn]++; l.count[cn] > degBound {
			return nil
		}
	}
	clear(l.count)
	l.bytes = make([]int, f.ClassNodes)
	l.used = make([]uint64, f.ClassNodes*l.words)
	// Bucket the parent-side slots (toward a larger identifier) by label,
	// stably: within a label, each parent meets its children in port
	// order, as the per-vertex byLabel walk does.
	off := g.Offsets()
	parentSide := func(v, p int) bool {
		s := int(off[v]) + p
		return f.Label[s] != forest.NoForest && g.ID(int(g.Neighbors(v)[p])) > g.ID(v)
	}
	l.labelEnd = make([]int32, degBound+1)
	for v := 0; v < g.N(); v++ {
		for p := 0; p < g.Deg(v); p++ {
			if parentSide(v, p) {
				l.labelEnd[l.label(f.Label[int(off[v])+p])]++
			}
		}
	}
	for lb := 1; lb <= degBound; lb++ {
		l.labelEnd[lb] += l.labelEnd[lb-1]
	}
	l.byLabel = make([]int32, l.labelEnd[degBound])
	fill := append([]int32(nil), l.labelEnd[:degBound]...)
	for v := 0; v < g.N(); v++ {
		for p := 0; p < g.Deg(v); p++ {
			if parentSide(v, p) {
				s := off[v] + int32(p)
				lb := l.label(f.Label[s]) - 1
				l.byLabel[fill[lb]] = s
				fill[lb]++
			}
		}
	}
	return l
}

// label returns the within-class label ℓ of forest fid.
func (l *FlatLeaf) label(fid int) int { return (fid-1)%l.degBound + 1 }

func (l *FlatLeaf) usedOf(cn int32) []uint64 {
	return l.used[int(cn)*l.words : int(cn+1)*l.words]
}

// mark adds color c to class node cn's used set.
func (l *FlatLeaf) mark(cn int32, c int) {
	l.usedOf(cn)[c/64] |= 1 << (c % 64)
	l.count[cn]++
	l.bytes[cn] += wire.IntLen(c)
}

// Run executes the leaf's Rounds(n, degBound) rounds, writing each classed
// slot's color into colors (per slot, zeroed by the caller).
//
// Within a stage's second round a parent reads each child's used set as
// the child reported it, while its own set grows live; the flat pass may
// update a child's set the moment its edge is colored because nothing else
// reads that set in the same round: the child's one parent in this forest
// holds forest color j, so the child, adjacent to it in a properly
// 3-colored forest, does not act in this stage.
func (l *FlatLeaf) Run(t *dist.Tally, colors []int) error {
	f := l.f
	if err := f.LabelRound(t); err != nil {
		return err
	}
	if err := f.ThreeColor(t); err != nil {
		return err
	}
	n := l.n
	maxColor := 2*l.degBound - 1
	for lb := 1; lb <= l.degBound; lb++ {
		edges := l.byLabel[l.labelEnd[lb-1]:l.labelEnd[lb]]
		for j := 1; j <= stages; j++ {
			// Round 1: children report their class-local used sets on
			// uncolored parent edges.
			if err := t.StartRound(n); err != nil {
				return err
			}
			for _, s := range edges {
				if colors[s] == 0 {
					cn := f.ClassNode[f.Rev[s]]
					t.Message(wire.UintLen(uint64(l.count[cn])) + l.bytes[cn])
				}
			}
			// Round 2: parents with forest color j color their child edges.
			if err := t.StartRound(n); err != nil {
				return err
			}
			for _, s := range edges {
				if colors[s] != 0 || f.Color[f.Node[s]] != j {
					continue
				}
				r := f.Rev[s]
				pu, cw := f.ClassNode[s], f.ClassNode[r]
				cc := firstFree(l.usedOf(pu), l.usedOf(cw), maxColor)
				colors[s], colors[r] = cc, cc
				l.mark(pu, cc)
				l.mark(cw, cc)
				t.Message(wire.IntLen(cc))
			}
		}
	}
	return nil
}
