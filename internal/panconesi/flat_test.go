package panconesi

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// randomClasses assigns every edge of g a class in 1..classes, or 0 (about
// one edge in six, left uncolored), from seed. It returns the per-slot
// table and the largest class degree at any vertex: the tightest degree
// bound the leaf accepts.
func randomClasses(g *graph.Graph, classes int, seed int64) ([]int, int) {
	rng := rand.New(rand.NewSource(seed))
	byEdge := make([]int, g.M())
	for e := range byEdge {
		if rng.Intn(6) > 0 {
			byEdge[e] = 1 + rng.Intn(classes)
		}
	}
	return slotClasses(g, byEdge)
}

// slotClasses spreads a per-edge class table over the slots and returns it
// with the largest class degree at any vertex.
func slotClasses(g *graph.Graph, byEdge []int) ([]int, int) {
	off := g.Offsets()
	classOf := make([]int, off[g.N()])
	degBound := 0
	for v := 0; v < g.N(); v++ {
		deg := map[int]int{}
		for p, e := range g.IncidentEdgeIDs(v) {
			c := byEdge[e]
			classOf[int(off[v])+p] = c
			if c != 0 {
				deg[c]++
				degBound = max(degBound, deg[c])
			}
		}
	}
	return classOf, degBound
}

// multiVertex is EdgeColorMulti over a per-slot class table, as a
// per-vertex function.
func multiVertex(g *graph.Graph, classOf []int, degBound int) func(dist.Process) []int {
	idx := make([]int, g.N()+1) // identifier → vertex index
	for v := 0; v < g.N(); v++ {
		idx[g.ID(v)] = v
	}
	return func(v dist.Process) []int {
		lo := int(g.Offsets()[idx[v.ID()]])
		return EdgeColorMulti(v, classOf[lo:lo+v.Deg()], degBound)
	}
}

// runFlatLeaf runs FlatLeaf the way a compiled form does.
func runFlatLeaf(t *testing.T, g *graph.Graph, classOf []int, degBound, maxRounds int) ([][]int, dist.Stats, error) {
	t.Helper()
	leaf := NewFlatLeaf(g, classOf, degBound)
	if leaf == nil {
		t.Fatalf("flat leaf refused a valid class table (degBound %d)", degBound)
	}
	tally := dist.CompiledEnv{MaxRounds: maxRounds}.NewTally()
	colors := make([]int, len(classOf))
	if err := leaf.Run(tally, colors); err != nil {
		return nil, tally.Stats, err
	}
	out := make([][]int, g.N())
	graph.PortSlices(g, colors, out)
	return out, tally.Stats, nil
}

// TestFlatLeafFamilies: the flat edge-pr bundle is byte-identical (Outputs
// and Stats) to its per-vertex form under Lockstep on every family and seed.
func TestFlatLeafFamilies(t *testing.T) {
	for name, g := range testutil.CompiledFamilies() {
		algo := Algo(g.MaxDegree())
		for seed := int64(0); seed < 2; seed++ {
			want, err := dist.Run(g, algo.Vertex, dist.WithSeed(seed), dist.WithEngine(dist.Lockstep))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := dist.RunAlgo(g, algo, dist.WithSeed(seed), dist.WithEngine(dist.Compiled))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got.Outputs, want.Outputs) {
				t.Fatalf("%s seed %d: outputs diverged", name, seed)
			}
			if got.Stats != want.Stats {
				t.Fatalf("%s seed %d: stats %v, want %v", name, seed, got.Stats, want.Stats)
			}
		}
	}
}

// TestFlatLeafMultiClass: the flat multi-class leaf equals EdgeColorMulti
// under Lockstep for random class assignments that respect the per-class
// degree bound, at the tightest bound and a looser one.
func TestFlatLeafMultiClass(t *testing.T) {
	for name, g := range testutil.CompiledFamilies() {
		for seed := int64(0); seed < 2; seed++ {
			for _, classes := range []int{2, 5} {
				classOf, tight := randomClasses(g, classes, seed)
				for _, degBound := range []int{tight, tight + 2} {
					want, err := dist.Run(g, multiVertex(g, classOf, degBound), dist.WithEngine(dist.Lockstep))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					out, stats, err := runFlatLeaf(t, g, classOf, degBound, dist.DefaultMaxRounds)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(out, want.Outputs) {
						t.Fatalf("%s seed %d, %d classes, bound %d: outputs diverged", name, seed, classes, degBound)
					}
					if stats != want.Stats {
						t.Fatalf("%s seed %d, %d classes, bound %d: stats %v, want %v", name, seed, classes, degBound, stats, want.Stats)
					}
				}
			}
		}
	}
}

// TestFlatLeafRoundCap: for every round cap up to the leaf's full cost —
// inside the labeling round, the Cole–Vishkin rounds and the stages — the
// flat forms trip with the same error text (which carries the partial
// Stats) as Lockstep, and run clean at the full cost.
func TestFlatLeafRoundCap(t *testing.T) {
	g := graph.ShuffledIDs(graph.GNM(40, 110, 2), 7)
	algo := Algo(g.MaxDegree())
	classOf, degBound := randomClasses(g, 3, 5)
	multi := multiVertex(g, classOf, degBound)
	for cap := 1; cap <= Rounds(g.N(), g.MaxDegree()); cap++ {
		want, werr := dist.Run(g, algo.Vertex, dist.WithMaxRounds(cap), dist.WithEngine(dist.Lockstep))
		got, gerr := dist.RunAlgo(g, algo, dist.WithMaxRounds(cap), dist.WithEngine(dist.Compiled))
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("cap %d: lockstep %v, compiled %v", cap, werr, gerr)
		}
		if werr == nil && (cap != Rounds(g.N(), g.MaxDegree()) || got.Stats != want.Stats) {
			t.Fatalf("cap %d: ran clean with %v (lockstep %v)", cap, got.Stats, want.Stats)
		}
	}
	for cap := 1; cap <= Rounds(g.N(), degBound); cap++ {
		_, werr := dist.Run(g, multi, dist.WithMaxRounds(cap), dist.WithEngine(dist.Lockstep))
		_, _, gerr := runFlatLeaf(t, g, classOf, degBound, cap)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("multi-class cap %d: lockstep %v, flat %v", cap, werr, gerr)
		}
	}
}

// TestFlatLeafFallback: below a class degree the flat leaf declines, and
// the bundle interprets the per-vertex form instead — whether that form
// then succeeds (out-degrees and free colors happen to fit) or panics (a
// star's center runs out of colors), the result equals Lockstep's.
func TestFlatLeafFallback(t *testing.T) {
	for name, tc := range map[string]struct {
		g        *graph.Graph
		degBound int
		fails    bool
	}{
		"gnm":  {graph.GNM(30, 90, 4), graph.GNM(30, 90, 4).MaxDegree() - 1, false},
		"star": {graph.Star(9), 1, true},
	} {
		classOf, _ := slotClasses(tc.g, make([]int, tc.g.M()))
		for s := range classOf {
			classOf[s] = 1
		}
		if NewFlatLeaf(tc.g, classOf, tc.degBound) != nil {
			t.Fatalf("%s: flat leaf accepted a degree bound below Δ", name)
		}
		algo := Algo(tc.degBound)
		want, werr := dist.Run(tc.g, algo.Vertex, dist.WithEngine(dist.Lockstep))
		got, gerr := dist.RunAlgo(tc.g, algo, dist.WithEngine(dist.Compiled))
		if (werr != nil) != tc.fails || (gerr != nil) != tc.fails {
			t.Fatalf("%s: lockstep %v, compiled %v", name, werr, gerr)
		}
		if tc.fails {
			if werr.Error() != gerr.Error() {
				t.Fatalf("%s: lockstep %v, compiled %v", name, werr, gerr)
			}
			continue
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Stats != want.Stats {
			t.Fatalf("%s: compiled %v, lockstep %v", name, got.Stats, want.Stats)
		}
	}
}

// FuzzFlatLeafAgree: an arbitrary graph (edges from stream, identifiers
// shuffled by idSeed) with an arbitrary class assignment (edge e takes
// classes[e mod len] mod 4, 0 = uncolored) runs through the flat leaf and
// through EdgeColorMulti under Lockstep, at a degree bound slack above the
// largest class degree; the two must agree byte for byte.
func FuzzFlatLeafAgree(f *testing.F) {
	f.Add(6, []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0}, []byte{1, 2, 3}, int64(0), uint8(0))
	f.Add(8, []byte{0, 1, 0, 2, 0, 3, 1, 2, 4, 5, 6, 7, 2, 6}, []byte{1}, int64(3), uint8(1))
	f.Add(12, []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0}, []byte{0, 1, 2, 3, 1}, int64(9), uint8(2))
	f.Add(1, []byte{}, []byte{}, int64(1), uint8(0))
	f.Fuzz(func(t *testing.T, n int, stream, classes []byte, idSeed int64, slack uint8) {
		if n < 1 || n > 48 {
			return
		}
		if len(stream) > 160 {
			stream = stream[:160]
		}
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(stream); i += 2 {
			b.TryAddEdge(int(stream[i])%n, int(stream[i+1])%n)
		}
		g := graph.ShuffledIDs(b.Build(), idSeed)
		byEdge := make([]int, g.M())
		for e := range byEdge {
			if len(classes) > 0 {
				byEdge[e] = int(classes[e%len(classes)]) % 4
			}
		}
		classOf, degBound := slotClasses(g, byEdge)
		degBound += int(slack % 4)
		want, werr := dist.Run(g, multiVertex(g, classOf, degBound), dist.WithEngine(dist.Lockstep))
		out, stats, gerr := runFlatLeaf(t, g, classOf, degBound, dist.DefaultMaxRounds)
		if werr != nil || gerr != nil {
			t.Fatalf("lockstep %v, flat %v", werr, gerr)
		}
		if !reflect.DeepEqual(out, want.Outputs) {
			t.Fatalf("outputs diverged on n=%d stream=%v classes=%v", n, stream, classes)
		}
		if stats != want.Stats {
			t.Fatalf("stats diverged: %v vs %v", stats, want.Stats)
		}
	})
}
