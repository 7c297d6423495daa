package dynamic

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
)

// Config sizes a Maintainer. The zero value is usable.
type Config struct {
	// Engine is the dist scheduler repair runs execute on.
	Engine dist.Engine
	// CompactPending is the churn-layer size that triggers compaction back
	// to CSR: 0 means the adaptive default max(64, m/4); < 0 disables
	// auto-compaction (Compact can still be called explicitly).
	CompactPending int
	// OnCommit, when set, observes every successfully committed mutation:
	// it is called under the maintainer's lock, after the repair has been
	// spliced and seam-checked, with the exact recolor delta of that
	// mutation. Calls arrive in commit order with consecutive sequence
	// numbers — the hook is the streaming feed's source of truth. It must
	// not call back into the Maintainer (deadlock) and should return
	// quickly: the mutating writer waits on it.
	OnCommit func(CommitEvent)
}

// ChangedColor is one entry of a commit's recolor delta: edge (U, V) now has
// color Color. U < V (canonical edge orientation).
type ChangedColor struct {
	U     int `json:"u"`
	V     int `json:"v"`
	Color int `json:"color"`
}

// CommitEvent is the delta of one committed mutation, as observed by
// Config.OnCommit: everything a mirror needs to track the maintained
// coloring incrementally. Applying Op to the previous edge set and Changed
// to the previous coloring (deleting the deleted edge's entry) yields the
// exact post-commit state, whose identity Fingerprint names.
type CommitEvent struct {
	// Seq is the 1-based count of committed mutations of this maintainer;
	// consecutive events have consecutive Seq.
	Seq int64
	// Op is the committed mutation.
	Op exp.Mutation
	// Report is the repair scope of this mutation (Dirty == len(Changed)).
	Report Report
	// Changed lists the edges whose color changed, in lexicographic order.
	// An insert always includes the new edge; a deletion may be empty (the
	// cascade was empty) — the deleted edge itself is never listed.
	Changed []ChangedColor
	// Fingerprint, N, M, Delta describe the graph after the commit.
	Fingerprint graph.Fingerprint
	N, M, Delta int
}

// Report is the scope of one mutation's repair: how much of the graph the
// change actually touched. Sum of Stats over repairs is in Stats.
type Report struct {
	// Dirty is the number of edges whose color changed (and were recolored
	// by the repair run). 0 means the mutation needed no recoloring at all
	// (a deletion whose cascade is empty).
	Dirty int `json:"dirty"`
	// Boundary is the number of committed edges adjacent to the dirty set
	// whose colors entered the repair as constraints.
	Boundary int `json:"boundary"`
	// Vertices is the vertex count of the induced repair subgraph.
	Vertices int `json:"vertices"`
	// Stats is the cost of the repair run (zero if Dirty == 0). Activations
	// is bounded by Vertices·Rounds — the affected region, not n.
	Stats dist.Stats `json:"stats"`
}

func (r *Report) add(o Report) {
	r.Dirty += o.Dirty
	r.Boundary += o.Boundary
	r.Vertices += o.Vertices
	r.Stats.Rounds += o.Stats.Rounds
	r.Stats.Bytes += o.Stats.Bytes
	r.Stats.Activations += o.Stats.Activations
	if o.Stats.MaxMessageBytes > r.Stats.MaxMessageBytes {
		r.Stats.MaxMessageBytes = o.Stats.MaxMessageBytes
	}
}

// Stats is the cumulative accounting of a Maintainer.
type Stats struct {
	Mutations int64 `json:"mutations"`
	Inserts   int64 `json:"inserts"`
	Deletes   int64 `json:"deletes"`
	// Repairs counts the distributed repair runs (mutations with Dirty > 0).
	Repairs int64 `json:"repairs"`
	// RepairedEdges / RepairVertices / RepairRounds / RepairActivations sum
	// the per-repair Report fields; RepairActivations versus
	// FullActivations is the locality claim in numbers.
	RepairedEdges     int64 `json:"repairedEdges"`
	RepairVertices    int64 `json:"repairVertices"`
	RepairRounds      int64 `json:"repairRounds"`
	RepairActivations int64 `json:"repairActivations"`
	// MaxDirty is the largest single repair.
	MaxDirty int `json:"maxDirty"`
	// FullRuns counts whole-graph canonical runs (the initial coloring);
	// FullActivations sums their activation counts.
	FullRuns        int64 `json:"fullRuns"`
	FullActivations int64 `json:"fullActivations"`
	// Compactions counts overlay compactions back to CSR.
	Compactions int64 `json:"compactions"`
}

// Maintainer owns a mutable graph (a graph.Overlay) and keeps the canonical
// edge coloring of its current state: after every Insert or Delete it
// discovers the exact set of edges whose canonical color changed, runs the
// distributed repair on the induced subgraph, splices the result back, and
// legality-checks the seam. At all times Colors() is byte-identical to
// CanonicalColors(Graph()) — the documented recompute contract — while
// costing only the affected region per mutation. Safe for concurrent use;
// mutations serialize.
type Maintainer struct {
	mu     sync.Mutex
	cfg    Config
	ov     *graph.Overlay
	colors map[edgeKey]int
	stats  Stats
	closed bool

	// Per-mutation scratch, reused across repairs so a mutation allocates
	// for its repair run, not for its bookkeeping. All guarded by mu.
	nbrBuf    []int32
	seeds     []graph.Edge
	succBuf   []graph.Edge
	heap      edgeHeap
	staged    staging
	boundary  []edgeKey // committed edges constraining a repair
	used      colorSet
	origVerts []int
	forbidden [][]int
	forbidBuf []int
}

// New builds a Maintainer over base (which must carry default vertex
// identifiers) and computes the initial canonical coloring with a
// distributed full run.
func New(base *graph.Graph, cfg Config) (*Maintainer, error) {
	ov, err := graph.NewOverlay(base)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{
		cfg:    cfg,
		ov:     ov,
		colors: make(map[edgeKey]int, base.M()),
	}
	if err := m.recolorAll(base); err != nil {
		return nil, err
	}
	return m, nil
}

// recolorAll replaces the whole coloring with the canonical coloring of g,
// computed by one distributed full run. Caller holds mu (or is New).
func (m *Maintainer) recolorAll(g *graph.Graph) error {
	colors, stats, err := CanonicalRun(g, dist.WithEngine(m.cfg.Engine))
	if err != nil {
		return err
	}
	clear(m.colors)
	for id, e := range g.Edges() {
		m.colors[keyOf(e)] = colors[id]
	}
	m.stats.FullRuns++
	m.stats.FullActivations += int64(stats.Activations)
	return nil
}

// Insert adds the edge (u, v) and repairs the coloring. The returned Report
// is the repair's scope.
func (m *Maintainer) Insert(u, v int) (Report, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Report{}, errClosed
	}
	if err := m.ov.Insert(u, v); err != nil {
		return Report{}, err
	}
	m.stats.Mutations++
	m.stats.Inserts++
	m.seeds = append(m.seeds[:0], canonEdge(u, v))
	rep, changed, err := m.repair(m.seeds)
	if err != nil {
		// The overlay mutated but the coloring did not: serving it would
		// violate the contract, so the maintainer poisons itself.
		m.closed = true
		return rep, err
	}
	m.maybeCompact()
	m.commit(exp.Mutation{Op: exp.OpInsert, U: u, V: v}, rep, changed)
	return rep, nil
}

// Delete removes the edge (u, v) and repairs the coloring. Deletions often
// repair for free: removing a constraint only lets later edges move to
// smaller colors, and the cascade is empty whenever no incident successor
// can improve.
func (m *Maintainer) Delete(u, v int) (Report, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Report{}, errClosed
	}
	e := canonEdge(u, v)
	if err := m.ov.Delete(u, v); err != nil {
		return Report{}, err
	}
	delete(m.colors, keyOf(e))
	m.stats.Mutations++
	m.stats.Deletes++
	// The deleted edge's color was an input to every incident lexicographic
	// successor; those are the change-propagation seeds.
	m.seeds = m.appendIncidentSuccessors(m.seeds[:0], e)
	rep, changed, err := m.repair(m.seeds)
	if err != nil {
		m.closed = true // see Insert: a failed repair poisons the maintainer
		return rep, err
	}
	m.maybeCompact()
	m.commit(exp.Mutation{Op: exp.OpDelete, U: u, V: v}, rep, changed)
	return rep, nil
}

// commit fires the OnCommit hook for one landed mutation. Caller holds mu,
// so events are serialized in commit order; Seq is the mutation count, which
// only commits advance.
func (m *Maintainer) commit(op exp.Mutation, rep Report, changed []ChangedColor) {
	if m.cfg.OnCommit == nil {
		return
	}
	m.cfg.OnCommit(CommitEvent{
		Seq:         m.stats.Mutations,
		Op:          op,
		Report:      rep,
		Changed:     changed,
		Fingerprint: m.ov.Fingerprint(),
		N:           m.ov.N(),
		M:           m.ov.M(),
		Delta:       m.ov.MaxDegree(),
	})
}

var errClosed = errors.New("dynamic: maintainer closed")

// edgeKey packs a canonical edge into one word, so the coloring and the
// per-mutation sets hash a uint64 rather than a two-int struct. Key order
// is lexicographic edge order.
type edgeKey uint64

func keyOf(e graph.Edge) edgeKey { return edgeKey(e.U)<<32 | edgeKey(e.V) }

func canonEdge(u, v int) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{U: u, V: v}
}

func lexLessEdge(a, b graph.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// appendIncidentSuccessors appends the current edges incident to e that
// follow it lexicographically, deduplicated (an edge sharing both endpoints
// cannot exist in a simple graph, so the two endpoint scans are disjoint
// except for e itself, which is excluded by the strict comparison).
func (m *Maintainer) appendIncidentSuccessors(out []graph.Edge, e graph.Edge) []graph.Edge {
	for _, w := range [2]int{e.U, e.V} {
		m.nbrBuf = m.ov.AppendNeighbors(w, m.nbrBuf[:0])
		for _, x := range m.nbrBuf {
			f := canonEdge(w, int(x))
			if lexLessEdge(e, f) {
				out = append(out, f)
			}
		}
	}
	return out
}

// repair runs the change-propagation discovery from the seed edges and, if
// any canonical color actually changes, recolors the dirty set with a
// distributed run on the induced repair subgraph. Caller holds mu. changed
// is the recolor delta in lexicographic edge order, materialized only when
// an OnCommit hook will consume it.
func (m *Maintainer) repair(seeds []graph.Edge) (Report, []ChangedColor, error) {
	staged := m.discover(seeds)
	dirty := staged.edges
	if len(dirty) == 0 {
		return Report{}, nil, nil
	}
	sub, origVerts, forbidden, boundary := m.repairSubgraph(staged)
	res, err := dist.RunAlgo(sub, repairBundle(sub, forbidden), dist.WithEngine(m.cfg.Engine))
	if err != nil {
		return Report{}, nil, err
	}
	subColors, err := graph.MergePortColors(sub, res.Outputs)
	if err != nil {
		return Report{}, nil, err
	}
	// The distributed run and the discovery pass compute the same greedy
	// fixpoint by construction; a mismatch means the determinism contract
	// broke, which must fail loudly, never splice.
	for id, se := range sub.Edges() {
		e := canonEdge(origVerts[se.U], origVerts[se.V])
		if c, _ := staged.lookup(e); subColors[id] != c {
			return Report{}, nil, fmt.Errorf("dynamic: repair of %v computed color %d, discovery staged %d", e, subColors[id], c)
		}
	}
	for i, e := range dirty {
		m.colors[keyOf(e)] = staged.colors[i]
	}
	if err := m.checkSeam(dirty); err != nil {
		return Report{}, nil, err
	}
	var changed []ChangedColor
	if m.cfg.OnCommit != nil {
		changed = make([]ChangedColor, len(dirty))
		for i, e := range dirty { // dirty is already in lexicographic order
			changed[i] = ChangedColor{U: e.U, V: e.V, Color: staged.colors[i]}
		}
	}
	rep := Report{Dirty: len(dirty), Boundary: boundary, Vertices: sub.N(), Stats: res.Stats}
	m.stats.Repairs++
	m.stats.RepairedEdges += int64(rep.Dirty)
	m.stats.RepairVertices += int64(rep.Vertices)
	m.stats.RepairRounds += int64(rep.Stats.Rounds)
	m.stats.RepairActivations += int64(rep.Stats.Activations)
	if rep.Dirty > m.stats.MaxDirty {
		m.stats.MaxDirty = rep.Dirty
	}
	return rep, changed, nil
}

// discover runs change propagation: re-evaluate the canonical fixpoint
// equation at each seed in lexicographic order; every edge whose color
// changes stages its new color and pushes its incident successors. Edges
// are processed in lexicographic order (a min-heap), and propagation only
// ever pushes successors, so when an edge is evaluated all lexicographically
// smaller colors are final — the staged set is exactly the set of edges on
// which the canonical colorings of the old and new graphs differ.
//
// Pops are nondecreasing (every push is a successor of the edge just
// popped), so an edge's duplicate pushes pop back to back and are skipped
// there, and edges are staged in lexicographic order with no sort. The
// result is maintainer scratch, valid until the next mutation.
func (m *Maintainer) discover(seeds []graph.Edge) *staging {
	staged := &m.staged
	staged.reset(m.ov.N())
	h := &m.heap
	h.es = h.es[:0]
	for _, e := range seeds {
		h.push(e)
	}
	var last graph.Edge // the zero value is a self-loop, never an edge
	for h.len() > 0 {
		e := h.pop()
		if e == last {
			continue
		}
		last = e
		m.used.reset()
		for _, w := range [2]int{e.U, e.V} {
			m.nbrBuf = m.appendPredecessorEnds(e, w)
			for _, x := range m.nbrBuf {
				f := canonEdge(w, int(x))
				if c, ok := staged.lookup(f); ok {
					m.used.add(c)
				} else {
					m.used.add(m.colors[keyOf(f)])
				}
			}
		}
		newC := m.used.mex()
		if newC == m.colors[keyOf(e)] { // 0 for a new edge, so an insert always stages
			continue
		}
		staged.add(e, newC)
		m.succBuf = m.appendIncidentSuccessors(m.succBuf[:0], e)
		for _, f := range m.succBuf {
			h.push(f)
		}
	}
	return staged
}

// appendPredecessorEnds returns, in m.nbrBuf, the far endpoints x of the
// edges (w, x) that precede e lexicographically, for w an endpoint of e: the
// neighbors of w below e's other endpoint. (With e = (u, v), u < v: an edge
// (u, x) or (x, u) precedes e iff x < v, and (x, v) or (v, x) iff x < u.)
func (m *Maintainer) appendPredecessorEnds(e graph.Edge, w int) []int32 {
	return m.ov.AppendNeighborsBelow(w, e.U+e.V-w, m.nbrBuf[:0])
}

// repairSubgraph builds the induced repair subgraph: exactly the staged
// (dirty) edges, on their endpoints (relabelled order-preservingly, so
// lexicographic edge order carries over). forbidden[subEdgeID] lists the
// colors of committed lexicographically smaller incident edges — the
// boundary constraints; boundary counts the distinct committed edges
// involved. origVerts and forbidden are maintainer scratch, valid until the
// next mutation.
func (m *Maintainer) repairSubgraph(staged *staging) (*graph.Graph, []int, [][]int, int) {
	dirty := staged.edges
	origVerts := m.origVerts[:0]
	for _, e := range dirty {
		origVerts = append(origVerts, e.U, e.V)
	}
	slices.Sort(origVerts)
	origVerts = slices.Compact(origVerts)
	m.origVerts = origVerts
	toSub := func(v int) int {
		i, _ := slices.BinarySearch(origVerts, v)
		return i
	}
	b := graph.NewBuilder(len(origVerts))
	for _, e := range dirty {
		_ = b.AddEdge(toSub(e.U), toSub(e.V))
	}
	sub := b.Build()
	// Each forbidden[id] is a window of one flat buffer. A window is never
	// written after it is cut, so one that a later append left behind in an
	// outgrown array still reads correctly.
	forbidden := slices.Grow(m.forbidden[:0], sub.M())[:sub.M()]
	flat := m.forbidBuf[:0]
	boundary := m.boundary[:0]
	for id, se := range sub.Edges() {
		e := canonEdge(origVerts[se.U], origVerts[se.V])
		m.used.reset()
		for _, w := range [2]int{e.U, e.V} {
			m.nbrBuf = m.appendPredecessorEnds(e, w)
			for _, x := range m.nbrBuf {
				f := canonEdge(w, int(x))
				if _, isDirty := staged.lookup(f); isDirty {
					continue
				}
				boundary = append(boundary, keyOf(f))
				m.used.add(m.colors[keyOf(f)])
			}
		}
		start := len(flat)
		flat = m.used.appendTo(flat)
		forbidden[id] = flat[start:len(flat):len(flat)]
	}
	slices.Sort(boundary)
	boundary = slices.Compact(boundary)
	m.forbidden, m.forbidBuf, m.boundary = forbidden, flat, boundary
	return sub, origVerts, forbidden, len(boundary)
}

// checkSeam verifies legality locally around the repaired edges: no dirty
// edge may share a color with any incident edge of the current graph. The
// canonical contract makes this a no-op in a correct run; it is the cheap
// guard that a splice bug cannot silently corrupt the maintained coloring.
func (m *Maintainer) checkSeam(dirty []graph.Edge) error {
	for _, e := range dirty {
		c := m.colors[keyOf(e)]
		for _, w := range [2]int{e.U, e.V} {
			m.nbrBuf = m.ov.AppendNeighbors(w, m.nbrBuf[:0])
			for _, x := range m.nbrBuf {
				f := canonEdge(w, int(x))
				if f != e && m.colors[keyOf(f)] == c {
					return fmt.Errorf("dynamic: seam violation: edges %v and %v share color %d", e, f, c)
				}
			}
		}
	}
	return nil
}

// maybeCompact compacts the overlay back to CSR when the churn layer
// outgrows the configured threshold. Compaction changes no colors — the
// coloring is keyed by endpoints, and the edge set is unchanged.
func (m *Maintainer) maybeCompact() {
	if m.cfg.CompactPending < 0 {
		return
	}
	threshold := m.cfg.CompactPending
	if threshold == 0 {
		threshold = m.ov.Base().M() / 4
		if threshold < 64 {
			threshold = 64
		}
	}
	if m.ov.Pending() >= threshold {
		m.ov.Compact()
		m.stats.Compactions++
	}
}

// Compact forces an overlay compaction.
func (m *Maintainer) Compact() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ov.Compact()
	m.stats.Compactions++
}

// Graph materializes the current mutated graph as a CSR graph (default
// identifiers). It builds a fresh graph per call; reads of the coloring do
// not need it.
func (m *Maintainer) Graph() *graph.Graph {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ov.Materialize()
}

// Colors returns the maintained coloring in the canonical edge-id order of
// Graph(). It is byte-identical to CanonicalColors(Graph()).
func (m *Maintainer) Colors() []int {
	return m.Summary(true).Colors
}

// appendColors appends the coloring in canonical edge-id order without
// materializing the graph: Builder.Build numbers edges lexicographically,
// and AppendNeighbors lists neighbors in increasing order, so walking u
// ascending over its neighbors w > u visits the edges in id order. Caller
// holds mu.
func (m *Maintainer) appendColors(dst []int) []int {
	for u := 0; u < m.ov.N(); u++ {
		m.nbrBuf = m.ov.AppendNeighbors(u, m.nbrBuf[:0])
		for _, w := range m.nbrBuf {
			if int(w) > u {
				dst = append(dst, m.colors[keyOf(graph.Edge{U: u, V: int(w)})])
			}
		}
	}
	return dst
}

// Summary is one atomic read of a maintainer's state: what a mutate response
// or a subscriber's hello reports, taken under a single lock hold so that a
// concurrent commit cannot pair one state's fingerprint with another's
// shape, totals, or coloring.
type Summary struct {
	Fingerprint graph.Fingerprint
	N, M, Delta int
	// Stats is the cumulative accounting; Stats.Mutations is the commit seq
	// of this state — every later commit has a greater Seq.
	Stats Stats
	// Colors is the coloring in canonical edge-id order (as Colors), or nil
	// when not requested.
	Colors []int
}

// Summary reads the current state atomically, with the full coloring when
// withColors is set.
func (m *Maintainer) Summary(withColors bool) Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Summary{
		Fingerprint: m.ov.Fingerprint(),
		N:           m.ov.N(),
		M:           m.ov.M(),
		Delta:       m.ov.MaxDegree(),
		Stats:       m.stats,
	}
	if withColors {
		s.Colors = m.appendColors(make([]int, 0, s.M))
	}
	return s
}

// Snapshot returns the current fingerprint, shape, and coloring as one
// atomic read, so concurrent mutations cannot tear a (fingerprint, colors)
// pair apart — the pair is what fingerprint-keyed caches store.
func (m *Maintainer) Snapshot() (fp graph.Fingerprint, n, mm, delta int, colors []int) {
	s := m.Summary(true)
	return s.Fingerprint, s.N, s.M, s.Delta, s.Colors
}

// ColorOf returns the color of edge (u, v), if present.
func (m *Maintainer) ColorOf(u, v int) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.colors[keyOf(canonEdge(u, v))]
	return c, ok
}

// Fingerprint returns the incrementally tracked edge-set fingerprint of the
// current graph — the cache key the service invalidates on.
func (m *Maintainer) Fingerprint() graph.Fingerprint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ov.Fingerprint()
}

// N, M, MaxDegree report the current shape.
func (m *Maintainer) N() int { m.mu.Lock(); defer m.mu.Unlock(); return m.ov.N() }
func (m *Maintainer) M() int { m.mu.Lock(); defer m.mu.Unlock(); return m.ov.M() }
func (m *Maintainer) MaxDegree() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ov.MaxDegree()
}

// Apply runs a mutation sequence (exp.MutationStream vocabulary) through
// the maintainer, one repair per mutation, and returns the aggregated
// repair scope. It stops at the first failing mutation; applied reports
// how many mutations landed (they remain applied — an op list is not a
// transaction), and the error names the failing op.
func (m *Maintainer) Apply(muts []exp.Mutation) (total Report, applied int, err error) {
	for i, mut := range muts {
		var rep Report
		switch mut.Op {
		case exp.OpInsert:
			rep, err = m.Insert(mut.U, mut.V)
		case exp.OpDelete:
			rep, err = m.Delete(mut.U, mut.V)
		default:
			err = fmt.Errorf("dynamic: unknown mutation op %q", mut.Op)
		}
		if err != nil {
			return total, applied, fmt.Errorf("dynamic: mutation %d (%s %d-%d): %w", i, mut.Op, mut.U, mut.V, err)
		}
		applied++
		total.add(rep)
	}
	return total, applied, nil
}

// Engine reports the dist scheduler this maintainer's repair runs execute
// on; monitoring endpoints (/statz) use it to attribute repair cost.
func (m *Maintainer) Engine() dist.Engine {
	return m.cfg.Engine
}

// Poisoned reports whether a failed repair has permanently disabled the
// maintainer (see Insert); owners should discard it.
func (m *Maintainer) Poisoned() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Stats snapshots the cumulative accounting.
func (m *Maintainer) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Close marks the maintainer closed. Further mutations fail.
func (m *Maintainer) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
}

// staging is discovery's result: the dirty edges in lexicographic order
// and, index-aligned, their packed keys and new colors. Lookups
// binary-search the sorted keys, behind a per-vertex filter: mark[v] ==
// epoch iff v is an endpoint of a staged edge, so the common miss — an edge
// away from the dirty region — costs two array reads.
type staging struct {
	edges  []graph.Edge
	keys   []edgeKey
	colors []int
	mark   []uint32
	epoch  uint32
}

// reset empties the staging for a graph on n vertices.
func (s *staging) reset(n int) {
	s.edges, s.keys, s.colors = s.edges[:0], s.keys[:0], s.colors[:0]
	if len(s.mark) < n {
		s.mark = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide
		clear(s.mark)
		s.epoch = 1
	}
}

// add stages e, which must follow every edge staged so far.
func (s *staging) add(e graph.Edge, c int) {
	s.edges = append(s.edges, e)
	s.keys = append(s.keys, keyOf(e))
	s.colors = append(s.colors, c)
	s.mark[e.U], s.mark[e.V] = s.epoch, s.epoch
}

func (s *staging) lookup(e graph.Edge) (int, bool) {
	if s.mark[e.U] != s.epoch || s.mark[e.V] != s.epoch {
		return 0, false
	}
	i, ok := slices.BinarySearch(s.keys, keyOf(e))
	if !ok {
		return 0, false
	}
	return s.colors[i], true
}

// colorSet is a reusable set of colors for the first-fit rule: a bitmap
// grown on demand and cleared in place, standing in for a per-edge map.
type colorSet struct{ words []uint64 }

func (s *colorSet) reset() { clear(s.words) }

func (s *colorSet) add(c int) {
	w := c >> 6
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (c & 63)
}

// mex returns the smallest color >= 1 not in the set.
func (s *colorSet) mex() int {
	for i, w := range s.words {
		if i == 0 {
			w |= 1 // 0 is "uncolored", never a candidate
		}
		if w != ^uint64(0) {
			return i<<6 + bits.TrailingZeros64(^w)
		}
	}
	return max(len(s.words)<<6, 1)
}

// appendTo appends the set's colors >= 1 in increasing order.
func (s *colorSet) appendTo(dst []int) []int {
	for i, w := range s.words {
		if i == 0 {
			w &^= 1
		}
		for ; w != 0; w &= w - 1 {
			dst = append(dst, i<<6+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// edgeHeap is a lexicographic min-heap of edges.
type edgeHeap struct{ es []graph.Edge }

func (h *edgeHeap) len() int { return len(h.es) }

func (h *edgeHeap) push(e graph.Edge) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !lexLessEdge(h.es[i], h.es[p]) {
			break
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *edgeHeap) pop() graph.Edge {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es = h.es[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.es) && lexLessEdge(h.es[l], h.es[small]) {
			small = l
		}
		if r < len(h.es) && lexLessEdge(h.es[r], h.es[small]) {
			small = r
		}
		if small == i {
			return top
		}
		h.es[i], h.es[small] = h.es[small], h.es[i]
		i = small
	}
}
