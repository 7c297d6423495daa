package panconesi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/graph"
)

func TestEdgeColoringLegalAndPaletteBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm-dense", graph.GNM(80, 600, 1)},
		{"gnm-sparse", graph.GNM(120, 200, 2)},
		{"tree", graph.RandomTree(150, 3)},
		{"cycle", graph.Cycle(51)},
		{"clique", graph.Complete(10)},
		{"star", graph.Star(30)},
		{"path", graph.Path(40)},
		{"regular", graph.RandomRegular(40, 6, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			res, err := EdgeColoring(g)
			if err != nil {
				t.Fatal(err)
			}
			colors, err := graph.MergePortColors(g, res.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.CheckEdgeColoring(g, colors); err != nil {
				t.Fatal(err)
			}
			delta := g.MaxDegree()
			if mc := graph.MaxColor(colors); mc > 2*delta-1 {
				t.Fatalf("palette %d exceeds 2Δ-1 = %d", mc, 2*delta-1)
			}
			if want := Rounds(g.N(), delta); res.Stats.Rounds != want {
				t.Fatalf("rounds = %d, want exactly %d", res.Stats.Rounds, want)
			}
		})
	}
}

func TestRoundsLinearInDelta(t *testing.T) {
	// The O(Δ) term should dominate: rounds grow ~6 per unit of Δ.
	n := 1 << 16
	r8 := Rounds(n, 8)
	r16 := Rounds(n, 16)
	if d := r16 - r8; d != 6*8 {
		t.Fatalf("rounds delta = %d, want 48", d)
	}
}

func TestEdgeColoringProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(40)
		m := rng.Intn(2*n + 1)
		g := graph.GNM(n, m, seed)
		if g.M() == 0 {
			return true
		}
		res, err := EdgeColoring(g)
		if err != nil {
			return false
		}
		colors, err := graph.MergePortColors(g, res.Outputs)
		if err != nil {
			return false
		}
		return graph.CheckEdgeColoring(g, colors) == nil &&
			graph.MaxColor(colors) <= 2*g.MaxDegree()-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeColoringShuffledIDs(t *testing.T) {
	g := graph.ShuffledIDs(graph.GNM(70, 300, 8), 123)
	res, err := EdgeColoring(g)
	if err != nil {
		t.Fatal(err)
	}
	colors, err := graph.MergePortColors(g, res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckEdgeColoring(g, colors); err != nil {
		t.Fatal(err)
	}
}

// TestSubgraphRestrictedLockstep colors two edge-disjoint subgraphs with two
// sequential EdgeColorStep invocations inside one vertex program, verifying
// that the step keeps all vertices in lockstep and that the masks work.
func TestSubgraphRestrictedLockstep(t *testing.T) {
	g := graph.GNM(60, 300, 9)
	// Split edges by parity of endpoint id sum; bound degrees of both sides
	// by Δ of g (a valid common bound).
	degBound := g.MaxDegree()
	type out struct{ a, b []int }
	res, err := dist.Run(g, func(v dist.Process) out {
		maskA := make([]bool, v.Deg())
		maskB := make([]bool, v.Deg())
		for p := range maskA {
			even := (v.ID()+v.NeighborID(p))%2 == 0
			maskA[p] = even
			maskB[p] = !even
		}
		a := EdgeColorStep(v, maskA, degBound)
		b := EdgeColorStep(v, maskB, degBound)
		return out{a: a, b: b}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Merge each side and validate against the corresponding edge subgraph.
	for side := 0; side < 2; side++ {
		ports := make([][]int, g.N())
		for v := range ports {
			if side == 0 {
				ports[v] = res.Outputs[v].a
			} else {
				ports[v] = res.Outputs[v].b
			}
		}
		colors, err := graph.MergePortColors(g, ports)
		if err != nil {
			t.Fatal(err)
		}
		for id, e := range g.Edges() {
			even := (g.ID(e.U)+g.ID(e.V))%2 == 0
			inSide := (side == 0) == even
			if inSide && colors[id] == 0 {
				t.Fatalf("side %d: edge %d uncolored", side, id)
			}
			if !inSide && colors[id] != 0 {
				t.Fatalf("side %d: edge %d colored %d but excluded", side, id, colors[id])
			}
		}
		// Legality within the side: incident same-side edges differ.
		for v := 0; v < g.N(); v++ {
			seen := map[int]bool{}
			for _, id := range g.IncidentEdgeIDs(v) {
				c := colors[id]
				if c == 0 {
					continue
				}
				if seen[c] {
					t.Fatalf("side %d: vertex %d has two incident edges colored %d", side, v, c)
				}
				seen[c] = true
			}
		}
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(2), graph.Path(1)} {
		res, err := EdgeColoring(g)
		if err != nil {
			t.Fatal(err)
		}
		colors, err := graph.MergePortColors(g, res.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() > 0 {
			if err := graph.CheckEdgeColoring(g, colors); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCompiledRunAllocs bounds the allocations of one compiled
// Panconesi–Rizzi run on regular(128,8) — the service's edge-pr miss shape.
// The per-vertex leaf is slice-indexed with one reused outbox per vertex;
// the ceiling sits about 1.5× above the measured count, so a map or a
// per-round outbox creeping back into the hot path fails here.
func TestCompiledRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count in -short mode")
	}
	g := graph.RandomRegular(128, 8, 3)
	delta := g.MaxDegree()
	algo := dist.Interpret(func(v dist.Process) []int { return EdgeColorStep(v, nil, delta) })
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := dist.RunAlgo(g, algo, dist.WithEngine(dist.Compiled)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("compiled edge-pr run on regular(128,8): %.0f allocs", allocs)
	const ceiling = 10000 // ~1.5× the 6700 measured
	if allocs > ceiling {
		t.Fatalf("%.0f allocs per run, ceiling %d", allocs, ceiling)
	}
}
