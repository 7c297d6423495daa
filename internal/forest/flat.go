package forest

import (
	"slices"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Flat is AssignLabelsClasses followed by ThreeColor for every vertex of a
// graph at once: passes over the graph's CSR slots (graph.Offsets; slot
// Offsets()[v]+p is port p of vertex v) in place of one Process per vertex.
// Compiled algorithm forms (dist.CompiledAlgo) build on it. Each round is
// replayed through a dist.Tally with every message the per-vertex forms
// stage, priced with the wire *Len helpers, so Stats and round-cap errors
// match theirs exactly.
//
// Per-forest state lives on nodes, one per (vertex, forest) pair: the flat
// counterpart of a Membership forest index.
type Flat struct {
	// Rev holds, per slot, the slot at the far end of the same edge.
	Rev []int32
	// ClassNode holds, per slot, the index of its (vertex, class) pair, or
	// -1 on an unclassed slot; ClassNodes counts the pairs. A vertex's
	// pairs are numbered in increasing class order, like Present(classOf).
	ClassNode  []int32
	ClassNodes int
	// Label holds, per slot, the forest id of its edge, NoForest off the
	// forests.
	Label []int
	// Node holds, per slot, the node of its (vertex, forest) pair, or -1.
	Node []int32
	// Color holds, per node, the vertex's color in that forest: its
	// identifier − 1 before ThreeColor, in {1,2,3} after.
	Color []int

	g       *graph.Graph
	parent  []int32 // per node: the parent's node in the same forest, -1 at a root
	ports   []int32 // per node: the vertex's ports in that forest
	outSlot []int32 // the out-edge slots: the labeling round's senders
	next    []int   // per node: ThreeColor's double buffer and recolor scratch
}

// NewFlat labels the forests of every vertex as AssignLabelsClasses does,
// from a per-slot class table (classOf[s] >= 1, 0 = inactive). It reports
// false, having run nothing, on a table the per-vertex labeling does not
// handle cleanly: a class out-degree above degBound (it panics), or an edge
// whose endpoints disagree on its class. Callers fall back to interpreting
// the per-vertex form there.
func NewFlat(g *graph.Graph, classOf []int, degBound int) (*Flat, bool) {
	n := g.N()
	off := g.Offsets()
	slots := int(off[n])
	f := &Flat{
		g:         g,
		Rev:       make([]int32, slots),
		ClassNode: make([]int32, slots),
		Label:     make([]int, slots),
		Node:      make([]int32, slots),
		// At most one node per slot, one out-edge per edge.
		Color:   make([]int, 0, slots),
		parent:  make([]int32, 0, slots),
		ports:   make([]int32, 0, slots),
		outSlot: make([]int32, 0, slots/2),
	}
	for v := 0; v < n; v++ {
		rp := g.ReversePorts(v)
		for p, u := range g.Neighbors(v) {
			f.Rev[int(off[v])+p] = off[u] + rp[p]
		}
	}
	// The labeling round's composition: out-edges (toward a smaller
	// identifier) take labels 1, 2, ... per class in port order.
	var cls []int
	var outDeg []int
	for v := 0; v < n; v++ {
		lo, hi := int(off[v]), int(off[v+1])
		cls = cls[:0]
		for s := lo; s < hi; s++ {
			if c := classOf[s]; c != 0 {
				if classOf[f.Rev[s]] != c {
					return nil, false
				}
				cls = append(cls, c)
			}
		}
		slices.Sort(cls)
		cls = slices.Compact(cls)
		outDeg = slices.Grow(outDeg[:0], len(cls))[:len(cls)]
		clear(outDeg)
		id := g.ID(v)
		nbrs := g.Neighbors(v)
		for s := lo; s < hi; s++ {
			f.ClassNode[s] = -1
			c := classOf[s]
			if c == 0 {
				continue
			}
			i, _ := slices.BinarySearch(cls, c)
			f.ClassNode[s] = int32(f.ClassNodes + i)
			if g.ID(int(nbrs[s-lo])) < id {
				outDeg[i]++
				if outDeg[i] > degBound {
					return nil, false
				}
				f.Label[s] = (c-1)*degBound + outDeg[i]
				f.outSlot = append(f.outSlot, int32(s))
			}
		}
		f.ClassNodes += len(cls)
	}
	// Each in-edge learns its label from the child across it.
	for v := 0; v < n; v++ {
		id := g.ID(v)
		lo := int(off[v])
		for p, u := range g.Neighbors(v) {
			if s := lo + p; classOf[s] != 0 && g.ID(int(u)) > id {
				f.Label[s] = f.Label[f.Rev[s]]
			}
		}
	}
	// Nodes: a vertex's labeled slots grouped by forest id, sorted as
	// (forest id, slot) keys.
	var group []int64
	for v := 0; v < n; v++ {
		group = group[:0]
		for s := off[v]; s < off[v+1]; s++ {
			f.Node[s] = -1
			if fid := f.Label[s]; fid != NoForest {
				group = append(group, int64(fid)<<32|int64(s))
			}
		}
		slices.Sort(group)
		for i, key := range group {
			if i == 0 || key>>32 != group[i-1]>>32 {
				f.Color = append(f.Color, g.ID(v)-1)
				f.parent = append(f.parent, -1)
				f.ports = append(f.ports, 0)
			}
			node := int32(len(f.ports) - 1)
			f.Node[int32(key)] = node
			f.ports[node]++
		}
	}
	for _, s := range f.outSlot {
		f.parent[f.Node[s]] = f.Node[f.Rev[s]]
	}
	f.next = make([]int, len(f.Color))
	return f, true
}

// LabelRound replays AssignLabelsClasses' one round: every out-edge
// carries its label to the parent.
func (f *Flat) LabelRound(t *dist.Tally) error {
	if err := t.StartRound(f.g.N()); err != nil {
		return err
	}
	for _, s := range f.outSlot {
		t.Message(wire.IntLen(f.Label[s]))
	}
	return nil
}

// ThreeColor runs ThreeColor's TotalRounds(n) rounds on every node,
// leaving each node's forest color in Color. Every round reads the colors
// as they stood at its start, as the per-vertex exchange does.
func (f *Flat) ThreeColor(t *dist.Tally) error {
	cur, next := f.Color, f.next
	defer func() { f.Color, f.next = cur, next }()
	// Phase 1: bit reduction against the parent's color; roots keep bit 0.
	for r := 0; r < CVRounds(f.g.N()); r++ {
		if err := f.exchange(t, cur); err != nil {
			return err
		}
		for i, p := range f.parent {
			if p >= 0 {
				next[i] = cvStep(cur[i], cur[p])
			} else {
				next[i] = cur[i] & 1
			}
		}
		cur, next = next, cur
	}
	for i := range cur {
		cur[i]++
	}
	// Phase 2: three (shift-down, recolor) iterations remove 6, 5, 4.
	for c := 6; c >= 4; c-- {
		if err := f.exchange(t, cur); err != nil {
			return err
		}
		for i, p := range f.parent {
			switch {
			case p >= 0:
				next[i] = cur[p]
			case cur[i] == 1:
				next[i] = 2
			default:
				next[i] = 1
			}
		}
		cur, next = next, cur
		if err := f.exchange(t, cur); err != nil {
			return err
		}
		usedBy := next // bit k: a forest neighbor holds color k in {1,2,3}
		clear(usedBy)
		for s, i := range f.Node {
			if i >= 0 && cur[i] == c {
				if nc := cur[f.Node[f.Rev[s]]]; nc >= 1 && nc <= 3 {
					usedBy[i] |= 1 << nc
				}
			}
		}
		for i := range cur {
			if cur[i] != c {
				continue
			}
			for k := 1; k <= 3; k++ {
				if usedBy[i]&(1<<k) == 0 {
					cur[i] = k
					break
				}
			}
		}
	}
	return nil
}

// exchange accounts one ThreeColor round: every node's color goes out on
// each of its vertex's ports in that forest.
func (f *Flat) exchange(t *dist.Tally, colors []int) error {
	if err := t.StartRound(f.g.N()); err != nil {
		return err
	}
	for i, k := range f.ports {
		t.Messages(int(k), wire.IntLen(colors[i]))
	}
	return nil
}
