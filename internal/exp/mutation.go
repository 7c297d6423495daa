package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Mutation is one edge churn operation against a dynamic graph session. It
// is the wire vocabulary shared by the experiment harness, the coloring
// service (POST /v1/mutate carries a list of these), and the load
// generator's churn mode.
type Mutation struct {
	// Op is "insert" or "delete".
	Op string `json:"op"`
	U  int    `json:"u"`
	V  int    `json:"v"`
}

const (
	// OpInsert / OpDelete are the Mutation.Op values.
	OpInsert = "insert"
	OpDelete = "delete"
)

// MutationStream names a deterministic churn workload: a base graph plus a
// generator that emits a sequence of always-valid mutations (inserts of
// non-edges, deletes of existing edges) against the evolving edge set.
// Like GraphSpec, the stream is seed-deterministic: the same spec generates
// the same mutation sequence everywhere, so a few bytes transmit an entire
// churn scenario.
type MutationStream struct {
	// Kind selects the generator:
	//   mix     — independent coin per op: insert a random non-edge or
	//             delete a random edge (InsertPct biases the coin);
	//   window  — streaming sliding window: insert fresh random edges and,
	//             once Window of them are live, delete the oldest first
	//             (steady-state alternation, models log-structured churn);
	//   hotspot — the mix generator confined to a Hot-vertex pool, so
	//             mutations hammer one neighborhood (the adversarial case
	//             for repair locality).
	Kind string `json:"kind"`
	// Base names the starting graph.
	Base GraphSpec `json:"base"`
	// Ops is the number of mutations to generate.
	Ops int `json:"ops"`
	// Seed drives the generator.
	Seed int64 `json:"seed,omitempty"`
	// InsertPct is the insert percentage of mix and hotspot (default 50).
	InsertPct int `json:"insertPct,omitempty"`
	// Window is the live-edge budget of window (default 32).
	Window int `json:"window,omitempty"`
	// Hot is the hotspot vertex-pool size (default max(4, n/16)).
	Hot int `json:"hot,omitempty"`
}

// String renders the stream canonically.
func (s MutationStream) String() string {
	switch s.Kind {
	case "mix":
		return fmt.Sprintf("mix(base=%s,ops=%d,insertPct=%d,seed=%d)", s.Base, s.Ops, s.InsertPct, s.Seed)
	case "window":
		return fmt.Sprintf("window(base=%s,ops=%d,window=%d,seed=%d)", s.Base, s.Ops, s.Window, s.Seed)
	case "hotspot":
		return fmt.Sprintf("hotspot(base=%s,ops=%d,hot=%d,insertPct=%d,seed=%d)", s.Base, s.Ops, s.Hot, s.InsertPct, s.Seed)
	default:
		return fmt.Sprintf("%s?(base=%s,ops=%d,seed=%d)", s.Kind, s.Base, s.Ops, s.Seed)
	}
}

// Generate builds the base graph and the mutation sequence. Every emitted
// mutation is valid at its position: inserts name non-edges of the evolving
// graph, deletes name existing edges. A generator that cannot make progress
// (complete graph and insert forced, say) flips the operation; if neither
// direction is possible the stream ends early. A stream with Ops > 0 that
// yields no mutation at all is an error, never a silent empty workload:
// with the seed of its base gnm, say, a stream replays exactly the pairs
// the base drew, finds every candidate already an edge, and needs another
// seed.
func (s MutationStream) Generate() (*graph.Graph, []Mutation, error) {
	if s.Ops < 0 || s.Ops > 1<<20 {
		return nil, nil, fmt.Errorf("exp: stream ops=%d out of range [0, %d]", s.Ops, 1<<20)
	}
	g, err := s.Base.Build()
	if err != nil {
		return nil, nil, err
	}
	if g.N() < 2 {
		return nil, nil, fmt.Errorf("exp: stream base %v has no room for edges", s.Base)
	}
	st := newStreamState(g, s.Seed)
	var muts []Mutation
	switch s.Kind {
	case "mix", "hotspot":
		pct := s.InsertPct
		if pct <= 0 {
			pct = 50
		}
		if pct > 100 {
			return nil, nil, fmt.Errorf("exp: insertPct=%d out of range", pct)
		}
		pool := g.N()
		if s.Kind == "hotspot" {
			pool = s.Hot
			if pool <= 0 {
				pool = g.N() / 16
			}
			if pool < 4 {
				pool = 4
			}
			if pool > g.N() {
				pool = g.N()
			}
		}
		for len(muts) < s.Ops {
			mut, ok := st.mixStep(pct, pool)
			if !ok {
				break
			}
			muts = append(muts, mut)
		}
	case "window":
		window := s.Window
		if window <= 0 {
			window = 32
		}
		var live []graph.Edge // FIFO of this stream's own inserts
		for len(muts) < s.Ops {
			if len(live) >= window {
				e := live[0]
				live = live[1:]
				st.delete(e)
				muts = append(muts, Mutation{Op: OpDelete, U: e.U, V: e.V})
				continue
			}
			e, ok := st.randomNonEdge(g.N())
			if !ok {
				break
			}
			st.insert(e)
			live = append(live, e)
			muts = append(muts, Mutation{Op: OpInsert, U: e.U, V: e.V})
		}
	default:
		return nil, nil, fmt.Errorf("exp: unknown stream kind %q (want mix, window, or hotspot)", s.Kind)
	}
	if s.Ops > 0 && len(muts) == 0 {
		return nil, nil, fmt.Errorf("exp: stream %v generated no mutations: its seed found no valid op on the base graph; use another seed", s)
	}
	return g, muts, nil
}

// streamState tracks the evolving edge set so every generated op is valid.
type streamState struct {
	rng   *rand.Rand
	edges []graph.Edge
	idx   map[graph.Edge]int
}

func newStreamState(g *graph.Graph, seed int64) *streamState {
	st := &streamState{
		rng:   rand.New(rand.NewSource(seed)),
		edges: append([]graph.Edge(nil), g.Edges()...),
		idx:   make(map[graph.Edge]int, g.M()),
	}
	for i, e := range st.edges {
		st.idx[e] = i
	}
	return st
}

func (st *streamState) has(e graph.Edge) bool { _, ok := st.idx[e]; return ok }

func (st *streamState) insert(e graph.Edge) {
	st.idx[e] = len(st.edges)
	st.edges = append(st.edges, e)
}

// delete removes e by swapping the last edge into its slot.
func (st *streamState) delete(e graph.Edge) {
	i := st.idx[e]
	last := len(st.edges) - 1
	st.edges[i] = st.edges[last]
	st.idx[st.edges[i]] = i
	st.edges = st.edges[:last]
	delete(st.idx, e)
}

// randomNonEdge rejection-samples a uniform non-edge among the first pool
// vertices; ok is false when the pool is (effectively) complete.
func (st *streamState) randomNonEdge(pool int) (graph.Edge, bool) {
	for try := 0; try < 256; try++ {
		u, v := st.rng.Intn(pool), st.rng.Intn(pool)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := graph.Edge{U: u, V: v}
		if !st.has(e) {
			return e, true
		}
	}
	return graph.Edge{}, false
}

// randomPoolEdge picks a uniform existing edge with both endpoints in the
// pool, falling back to any edge when the pool holds none; ok is false when
// the graph is edgeless.
func (st *streamState) randomPoolEdge(pool int) (graph.Edge, bool) {
	if len(st.edges) == 0 {
		return graph.Edge{}, false
	}
	for try := 0; try < 256; try++ {
		e := st.edges[st.rng.Intn(len(st.edges))]
		if e.U < pool && e.V < pool {
			return e, true
		}
	}
	return st.edges[st.rng.Intn(len(st.edges))], true
}

// mixStep performs one biased-coin step of the mix/hotspot generators.
func (st *streamState) mixStep(insertPct, pool int) (Mutation, bool) {
	wantInsert := st.rng.Intn(100) < insertPct
	if wantInsert {
		if e, ok := st.randomNonEdge(pool); ok {
			st.insert(e)
			return Mutation{Op: OpInsert, U: e.U, V: e.V}, true
		}
		wantInsert = false // pool complete: flip to delete
	}
	if e, ok := st.randomPoolEdge(pool); ok {
		st.delete(e)
		return Mutation{Op: OpDelete, U: e.U, V: e.V}, true
	}
	// Edgeless: flip back to an unrestricted insert if possible.
	if e, ok := st.randomNonEdge(pool); ok {
		st.insert(e)
		return Mutation{Op: OpInsert, U: e.U, V: e.V}, true
	}
	return Mutation{}, false
}
