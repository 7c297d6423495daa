package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// EdgeSetFingerprint is an order-independent content hash of (n, edge set):
// the XOR-fold of a per-edge hash. Unlike Fingerprint — which hashes the CSR
// arrays and therefore must be recomputed from scratch after any change —
// the XOR structure makes it incrementally maintainable: inserting or
// deleting an edge toggles exactly one term, so an Overlay tracks the
// fingerprint of its evolving graph in O(1) per mutation. Two graphs on the
// default identifier assignment have equal EdgeSetFingerprints iff they have
// the same vertex count and edge set.
func (g *Graph) EdgeSetFingerprint() Fingerprint {
	f := edgeSetSeed(g.n)
	for _, e := range g.edges {
		f.xor(edgeHash(e))
	}
	return f
}

// edgeSetSeed is the fingerprint of the edgeless graph on n vertices; the
// vertex count is folded in so Path(3) and Path(4)-minus-an-edge differ.
func edgeSetSeed(n int) Fingerprint {
	var b [16]byte
	copy(b[:8], "edgeset0")
	binary.LittleEndian.PutUint64(b[8:], uint64(n))
	return Fingerprint(sha256.Sum256(b[:]))
}

// edgeHash is the per-edge term of the XOR-fold.
func edgeHash(e Edge) Fingerprint {
	var b [24]byte
	copy(b[:8], "edgeset1")
	binary.LittleEndian.PutUint64(b[8:], uint64(e.U))
	binary.LittleEndian.PutUint64(b[16:], uint64(e.V))
	return Fingerprint(sha256.Sum256(b[:]))
}

func (f *Fingerprint) xor(g Fingerprint) {
	for i := range f {
		f[i] ^= g[i]
	}
}

// Overlay is a mutable edge-churn layer over an immutable CSR Graph: the
// current graph is base minus the deleted base edges plus the inserted ones.
// It supports the queries an incremental recoloring pass needs — adjacency,
// degrees, Δ, edge membership — without rebuilding the CSR arrays, tracks
// the vertex count-invariant quantities (m, per-vertex degrees, Δ via a
// degree histogram, EdgeSetFingerprint) incrementally in O(1) amortized per
// mutation, and compacts back to a fresh CSR Graph on demand or when the
// churn layer outgrows the base.
//
// The vertex set is fixed: mutations add and remove edges only. Overlay
// requires the base graph to carry the default identifier assignment
// (ID(v) = v+1), so vertex-index order, identifier order, and the canonical
// lexicographic edge order all agree and survive compaction unchanged.
//
// An Overlay is not safe for concurrent use; callers (dynamic.Maintainer)
// serialize access.
type Overlay struct {
	base    *Graph
	added   map[Edge]struct{} // present, not in base
	removed map[Edge]struct{} // in base, absent
	addAdj  map[int][]int32   // per-vertex inserted neighbors, sorted
	remAdj  map[int][]int32   // per-vertex removed base neighbors, sorted
	deg     []int             // current degree per vertex
	degHist []int             // degHist[d] = #vertices of degree d
	maxDeg  int               // current Δ, tracked via degHist
	m       int               // current edge count
	fp      Fingerprint       // incremental EdgeSetFingerprint
}

// NewOverlay returns an overlay over base with no pending mutations. It
// fails if base does not carry the default identifier assignment.
func NewOverlay(base *Graph) (*Overlay, error) {
	for v := 0; v < base.N(); v++ {
		if base.ID(v) != v+1 {
			return nil, fmt.Errorf("graph: overlay requires default ids, vertex %d has id %d", v, base.ID(v))
		}
	}
	o := &Overlay{
		base:    base,
		added:   make(map[Edge]struct{}),
		removed: make(map[Edge]struct{}),
		addAdj:  make(map[int][]int32),
		remAdj:  make(map[int][]int32),
		deg:     base.Degrees(),
		degHist: make([]int, base.N()+1),
		maxDeg:  base.MaxDegree(),
		m:       base.M(),
		fp:      base.EdgeSetFingerprint(),
	}
	for _, d := range o.deg {
		o.degHist[d]++
	}
	return o, nil
}

// Base returns the CSR graph the overlay currently layers over (the last
// compaction point, not the mutated graph).
func (o *Overlay) Base() *Graph { return o.base }

// N returns the (fixed) vertex count.
func (o *Overlay) N() int { return o.base.N() }

// M returns the current edge count.
func (o *Overlay) M() int { return o.m }

// Deg returns the current degree of v.
func (o *Overlay) Deg(v int) int { return o.deg[v] }

// MaxDegree returns Δ of the current graph, maintained incrementally.
func (o *Overlay) MaxDegree() int { return o.maxDeg }

// Fingerprint returns the EdgeSetFingerprint of the current graph,
// maintained in O(1) per mutation; it equals Materialize().EdgeSetFingerprint().
func (o *Overlay) Fingerprint() Fingerprint { return o.fp }

// Pending returns the size of the churn layer: the number of inserted plus
// deleted edges relative to the base.
func (o *Overlay) Pending() int { return len(o.added) + len(o.removed) }

// HasEdge reports whether (u, v) is an edge of the current graph.
func (o *Overlay) HasEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= o.N() || v >= o.N() {
		return false
	}
	e := canonical(u, v)
	if _, ok := o.added[e]; ok {
		return true
	}
	if _, ok := o.removed[e]; ok {
		return false
	}
	return o.base.HasEdge(u, v)
}

// Insert adds the edge (u, v) to the current graph. Inserting an existing
// edge, a self-loop, or an out-of-range endpoint is an error; the overlay is
// unchanged on error.
func (o *Overlay) Insert(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: overlay insert self-loop at %d", u)
	}
	if u < 0 || v < 0 || u >= o.N() || v >= o.N() {
		return fmt.Errorf("graph: overlay insert (%d,%d) out of range [0,%d)", u, v, o.N())
	}
	if o.HasEdge(u, v) {
		return fmt.Errorf("graph: overlay insert duplicate edge (%d,%d)", u, v)
	}
	e := canonical(u, v)
	if _, wasRemoved := o.removed[e]; wasRemoved {
		delete(o.removed, e) // re-inserting a deleted base edge cancels out
		removeAdj(o.remAdj, e.U, int32(e.V))
		removeAdj(o.remAdj, e.V, int32(e.U))
	} else {
		o.added[e] = struct{}{}
		insertAdj(o.addAdj, e.U, int32(e.V))
		insertAdj(o.addAdj, e.V, int32(e.U))
	}
	o.bumpDeg(e.U, +1)
	o.bumpDeg(e.V, +1)
	o.m++
	o.fp.xor(edgeHash(e))
	return nil
}

// Delete removes the edge (u, v) from the current graph. Deleting a
// non-edge is an error; the overlay is unchanged on error.
func (o *Overlay) Delete(u, v int) error {
	if !o.HasEdge(u, v) {
		return fmt.Errorf("graph: overlay delete of non-edge (%d,%d)", u, v)
	}
	e := canonical(u, v)
	if _, wasAdded := o.added[e]; wasAdded {
		delete(o.added, e) // deleting an inserted edge cancels out
		removeAdj(o.addAdj, e.U, int32(e.V))
		removeAdj(o.addAdj, e.V, int32(e.U))
	} else {
		o.removed[e] = struct{}{}
		insertAdj(o.remAdj, e.U, int32(e.V))
		insertAdj(o.remAdj, e.V, int32(e.U))
	}
	o.bumpDeg(e.U, -1)
	o.bumpDeg(e.V, -1)
	o.m--
	o.fp.xor(edgeHash(e))
	return nil
}

// insertAdj places w into v's sorted list in adj.
func insertAdj(adj map[int][]int32, v int, w int32) {
	a := adj[v]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= w })
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = w
	adj[v] = a
}

// removeAdj drops w from v's sorted list in adj.
func removeAdj(adj map[int][]int32, v int, w int32) {
	a := adj[v]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= w })
	adj[v] = append(a[:i], a[i+1:]...)
}

// bumpDeg moves v between degree-histogram buckets and tracks Δ: the max
// pointer rises with an insert in O(1) and walks down past emptied buckets
// after deletes, which amortizes to O(1) per mutation.
func (o *Overlay) bumpDeg(v, delta int) {
	o.degHist[o.deg[v]]--
	o.deg[v] += delta
	o.degHist[o.deg[v]]++
	if o.deg[v] > o.maxDeg {
		o.maxDeg = o.deg[v]
	}
	for o.maxDeg > 0 && o.degHist[o.maxDeg] == 0 {
		o.maxDeg--
	}
}

// AppendNeighbors appends the current neighbors of v to buf in increasing
// vertex order and returns the extended slice. It merges the base adjacency
// (skipping the removed-neighbor list, a sorted subsequence of it) with the
// inserted-neighbor list.
func (o *Overlay) AppendNeighbors(v int, buf []int32) []int32 {
	return o.AppendNeighborsBelow(v, o.N(), buf)
}

// AppendNeighborsBelow is AppendNeighbors restricted to the neighbors w <
// bound; the merge stops at the first neighbor at or above it.
func (o *Overlay) AppendNeighborsBelow(v, bound int, buf []int32) []int32 {
	baseNbrs := o.base.Neighbors(v)
	add, rem := o.addAdj[v], o.remAdj[v]
	i, j, k := 0, 0, 0
	for i < len(baseNbrs) || j < len(add) {
		var w int32
		switch {
		case j >= len(add) || (i < len(baseNbrs) && baseNbrs[i] < add[j]):
			w = baseNbrs[i]
			i++
			if k < len(rem) && rem[k] == w {
				k++
				continue
			}
		default:
			w = add[j]
			j++
		}
		if int(w) >= bound {
			break
		}
		buf = append(buf, w)
	}
	return buf
}

// Materialize builds the current graph as an immutable CSR Graph (default
// identifiers), fresh on every call: it costs a sort of all m edges, so hot
// paths read through AppendNeighbors instead.
func (o *Overlay) Materialize() *Graph {
	b := NewBuilder(o.N())
	for _, e := range o.base.Edges() {
		if _, gone := o.removed[e]; !gone {
			_ = b.AddEdge(e.U, e.V)
		}
	}
	for e := range o.added {
		_ = b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// Compact materializes the current graph, installs it as the new base, and
// clears the churn layer. Adjacency queries after a compaction read pure CSR
// again. Returns the new base.
func (o *Overlay) Compact() *Graph {
	g := o.Materialize()
	o.base = g
	o.added = make(map[Edge]struct{})
	o.removed = make(map[Edge]struct{})
	o.addAdj = make(map[int][]int32)
	o.remAdj = make(map[int][]int32)
	return g
}
