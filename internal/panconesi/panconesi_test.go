package panconesi

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/wire"
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

// TestCompiledRunAllocs bounds the allocations of one compiled run of the
// service's miss shapes. Two rows run Panconesi–Rizzi on regular(128,8) —
// the edge-pr miss shape — in both compiled forms: the interpreted row runs
// the per-vertex leaf (slice-indexed, one reused outbox per vertex) on
// coroutines, as ablation and plain Interpret callers still do; the flat
// row is the served bundle. The third is the served vertex-be bundle
// (flat Legal-Color) on powercycle(120,4). Each ceiling sits about 1.5×
// above the measured count, so a map or a per-round outbox creeping back
// into a hot path fails here.
func TestCompiledRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count in -short mode")
	}
	g := graph.RandomRegular(128, 8, 3)
	delta := g.MaxDegree()
	edge := func(algo dist.Algo[[]int]) func() error {
		return func() error {
			_, err := dist.RunAlgo(g, algo, dist.WithEngine(dist.Compiled))
			return err
		}
	}
	pc := graph.PowerOfCycle(120, 4)
	pl, err := core.AutoPlan(pc.MaxDegree(), 2, 2, 9, false)
	if err != nil {
		t.Fatal(err)
	}
	legal, err := core.LegalColorAlgo(pc.N(), pc.MaxDegree(), pl, core.StartIDs)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name    string
		run     func() error
		ceiling float64
	}{
		{"interpreted edge-pr", edge(dist.Interpret(func(v dist.Process) []int { return EdgeColorStep(v, nil, delta) })), 10000}, // ~1.5× the 6700 measured
		{"flat edge-pr", edge(Algo(delta)), 45}, // ~1.5× the 30 measured
		{"flat vertex-be", func() error {
			_, err := dist.RunAlgo(pc, legal, dist.WithEngine(dist.Compiled))
			return err
		}, 20}, // ~1.5× the 12 measured
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if err := row.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s run: %.0f allocs", row.name, allocs)
		if allocs > row.ceiling {
			t.Fatalf("%s: %.0f allocs per run, ceiling %.0f", row.name, allocs, row.ceiling)
		}
	}
}

// garbageProc forwards rounds to the real Process but hands back an inbox
// with a garbage message on every port, and records whether anything was
// staged. Every garbage message is one that, if read, must change the
// leaf's state or panic: an out-of-palette color, or a used set covering
// the whole palette (no free color left).
type garbageProc struct {
	dist.Process
	rng     *rand.Rand
	palette int
	sent    bool
}

func (g *garbageProc) Round(out [][]byte) [][]byte {
	for _, m := range out {
		if m != nil {
			g.sent = true
		}
	}
	g.Process.Round(out)
	in := make([][]byte, g.Deg())
	for p := range in {
		if g.rng.Intn(2) == 0 {
			in[p] = wire.AppendInt(nil, g.palette+1+g.rng.Intn(100))
		} else {
			full := make([]uint64, (g.palette+64)/64)
			for c := 1; c <= g.palette; c++ {
				full[c/64] |= 1 << (c % 64)
			}
			in[p] = appendSet(nil, full)
		}
	}
	return in
}

// TestDeadStagesReadNothing pins the dead-stage predicate EdgeColorMulti
// idles on. Each leaf walks the stages as EdgeColorMulti does, but runs a
// stage the predicate calls dead through garbageProc: it must stage no
// message and leave colors and used bitmaps exactly as they were. A
// predicate that idled a stage which reads fails here; the engine-agreement
// oracles cannot see that mistake, since every engine would idle alike.
func TestDeadStagesReadNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		classes int
	}{
		{"gnm", graph.GNM(80, 400, 3), 1},
		{"gnm-3class", graph.GNM(80, 400, 3), 3},
		{"regular-2class", graph.RandomRegular(64, 8, 2), 2},
		{"tree", graph.RandomTree(60, 1), 1},
		{"star", graph.Star(20), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			degBound := tc.g.MaxDegree()
			var dead, live atomic.Int64
			_, err := dist.Run(tc.g, func(v dist.Process) []int {
				classOf := make([]int, v.Deg())
				for p := range classOf {
					classOf[p] = v.ID()*v.NeighborID(p)%tc.classes + 1
				}
				m := forest.AssignLabelsClasses(v, classOf, degBound)
				s := newLeaf(v, m, classOf, degBound)
				s.fcolors = forest.ThreeColor(v, m)
				rng := rand.New(rand.NewSource(int64(v.ID())))
				rest := s.byLabel
				for l := 1; l <= degBound; l++ {
					n := 0
					for n < len(rest) && s.label(m.PortLabel[rest[n]]) == l {
						n++
					}
					for j := 1; j <= stages; j++ {
						if !s.dead(rest[:n], j) {
							live.Add(1)
							s.runStage(rest[:n], j)
							continue
						}
						dead.Add(1)
						colors, used := slices.Clone(s.colors), slices.Clone(s.used)
						gp := &garbageProc{Process: v, rng: rng, palette: 2*degBound - 1}
						s.v = gp
						s.runStage(rest[:n], j)
						s.v = v
						if gp.sent {
							panic(fmt.Sprintf("dead stage (%d,%d) staged a message", l, j))
						}
						if !slices.Equal(colors, s.colors) || !slices.Equal(used, s.used) {
							panic(fmt.Sprintf("dead stage (%d,%d) changed the leaf's state", l, j))
						}
					}
					rest = rest[n:]
				}
				return s.colors
			}, dist.WithEngine(dist.Lockstep))
			if err != nil {
				t.Fatal(err)
			}
			if dead.Load() == 0 || live.Load() == 0 {
				t.Fatalf("dead=%d live=%d stages: the workload must exercise both", dead.Load(), live.Load())
			}
		})
	}
}
