package dynamic

import (
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/wire"
)

// repairBundle pairs repairAlgo with its compiled form, so repair runs opt
// into the Compiled engine and degrade gracefully under the others.
func repairBundle(sub *graph.Graph, forbidden [][]int) dist.Algo[[]int] {
	return dist.Algo[[]int]{
		Vertex:   repairAlgo(sub, forbidden),
		Compiled: &repairCompiled{forbidden: forbidden},
	}
}

// repairCompiled executes repairAlgo's round structure as flat passes over
// the CSR arrays. The per-vertex form broadcasts its full local view — one
// (farEndpoint, color) pair per incident edge — every round it participates,
// and neighbors act on the snapshot they last received. The compiled form
// keeps one `sent` array per directed edge slot holding exactly those
// snapshots: a vertex's send phase copies its live colors into its slots,
// and every read of remote state goes through `sent`, never the live array,
// reproducing the synchronous visibility (and therefore the decision rounds,
// message sizes, and Stats) of the scheduled run byte for byte.
//
// Like repairAlgo, it requires the default identifier assignment, so
// identifier order and index order agree.
type repairCompiled struct {
	forbidden [][]int
}

func (rc *repairCompiled) RunCompiled(g *graph.Graph, env dist.CompiledEnv, out [][]int) (dist.Stats, error) {
	n := g.N()
	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + g.Deg(v)
	}
	m2 := off[n]
	col := make([]int32, m2)  // live colors, indexed off[v]+port
	sent := make([]int32, m2) // colors as of each vertex's last broadcast
	rev := make([]int32, m2)  // slot at the far end of the same edge
	nbrLen := make([]int, n)  // constant part of each vertex's message size
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(v)
		rp := g.ReversePorts(v)
		sum := 0
		for p, u := range nbrs {
			rev[off[v]+p] = int32(off[u] + int(rp[p]))
			sum += wire.IntLen(int(u))
		}
		nbrLen[v] = sum
	}
	msgLen := make([]int, n)
	undecided := make([]int, n)
	dirty := make([]bool, n)
	active := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		undecided[v] = g.Deg(v)
		dirty[v] = true // the initial view must be announced before halting
		active = append(active, int32(v))
	}
	var used colorSet
	t := env.NewTally()
	for len(active) > 0 {
		if err := t.StartRound(len(active)); err != nil {
			return t.Stats, err
		}
		// Send: publish the live state of every dirty participant (a clean
		// participant re-broadcasts its unchanged last message).
		for _, vv := range active {
			v := int(vv)
			base := off[v]
			deg := off[v+1] - base
			if dirty[v] {
				ln := nbrLen[v]
				for s := base; s < base+deg; s++ {
					sent[s] = col[s]
					ln += wire.IntLen(int(col[s]))
				}
				msgLen[v] = ln
			}
			t.Messages(deg, msgLen[v])
		}
		// Receive, learn, decide: live own state, snapshot remote state.
		for _, vv := range active {
			v := int(vv)
			dirty[v] = false
			base := off[v]
			deg := off[v+1] - base
			nbrs := g.Neighbors(v)
			eids := g.IncidentEdgeIDs(v)
			// Learn decisions of edges owned by the far endpoint.
			for q := 0; q < deg; q++ {
				slot := base + q
				if col[slot] != 0 || int(nbrs[q]) > v {
					continue
				}
				if c := sent[rev[slot]]; c != 0 {
					col[slot] = c
					undecided[v]--
					dirty[v] = true
				}
			}
			// Decide owned edges whose lexicographic frontier is quiet.
			for q := 0; q < deg; q++ {
				slot := base + q
				other := int(nbrs[q])
				if col[slot] != 0 || other < v {
					continue
				}
				used.reset()
				for _, c := range rc.forbidden[eids[q]] {
					used.add(c)
				}
				blocked := false
				for r := 0; r < deg && !blocked; r++ {
					far := int(nbrs[r])
					if r == q || !lexLessPair(v, far, v, other) {
						continue
					}
					if c := col[base+r]; c == 0 {
						blocked = true
					} else {
						used.add(int(c))
					}
				}
				u := other
				ub := off[u]
				unbrs := g.Neighbors(u)
				for j, udeg := 0, off[u+1]-ub; j < udeg && !blocked; j++ {
					far := int(unbrs[j])
					if far == v || !lexLessPair(other, far, v, other) {
						continue
					}
					if c := sent[ub+j]; c == 0 {
						blocked = true
					} else {
						used.add(int(c))
					}
				}
				if !blocked {
					col[slot] = int32(used.mex())
					undecided[v]--
					dirty[v] = true
				}
			}
		}
		next := active[:0]
		for _, vv := range active {
			if v := int(vv); undecided[v] > 0 || dirty[v] {
				next = append(next, vv)
			}
		}
		active = next
	}
	for v := 0; v < n; v++ {
		deg := off[v+1] - off[v]
		cs := make([]int, deg)
		for p := 0; p < deg; p++ {
			cs[p] = int(col[off[v]+p])
		}
		out[v] = cs
	}
	return t.Stats, nil
}

// lexLessPair reports whether edge (a1,b1) precedes (a2,b2) after
// canonicalizing endpoint order — repairAlgo's lexLess.
func lexLessPair(a1, b1, a2, b2 int) bool {
	if a1 > b1 {
		a1, b1 = b1, a1
	}
	if a2 > b2 {
		a2, b2 = b2, a2
	}
	if a1 != a2 {
		return a1 < a2
	}
	return b1 < b2
}
