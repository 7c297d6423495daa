package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// deepVertexPlan returns the cheapest (fewest rounds on n identifiers) auto
// plan with at least one Defective-Color level for degree bound
// max(delta, 24), so the compiled form's interpreted levels are exercised
// on every graph, however sparse.
func deepVertexPlan(t testing.TB, n, delta int) *Plan {
	t.Helper()
	delta = max(delta, 24)
	var best *Plan
	bestRounds := 0
	for b := 1; b <= 2; b++ {
		for p := 2; p <= 16; p++ {
			pl, err := AutoPlan(delta, 2, b, p, false)
			if err != nil || pl.Depth() == 0 {
				continue
			}
			r, err := LegalRounds(n, delta, pl, StartIDs)
			if err != nil {
				t.Fatal(err)
			}
			if best == nil || r < bestRounds {
				best, bestRounds = pl, r
			}
		}
	}
	if best == nil {
		t.Fatalf("no vertex plan with a defective level for Δ=%d", delta)
	}
	return best
}

// checkLegalColorAlgo runs the LegalColorAlgo bundle compiled and its
// per-vertex form under Lockstep, and requires byte-identical results:
// equal error text, or equal Outputs and Stats. It returns the error.
func checkLegalColorAlgo(t testing.TB, name string, g *graph.Graph, nBound, delta int, pl *Plan, mode Mode, opts ...dist.Option) error {
	t.Helper()
	algo, err := LegalColorAlgo(nBound, delta, pl, mode)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, werr := dist.Run(g, algo.Vertex, append(opts, dist.WithEngine(dist.Lockstep))...)
	got, gerr := dist.RunAlgo(g, algo, append(opts, dist.WithEngine(dist.Compiled))...)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: lockstep %v, compiled %v", name, werr, gerr)
	}
	if werr != nil {
		return werr
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("%s: outputs diverged", name)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %v, want %v", name, got.Stats, want.Stats)
	}
	return nil
}

// TestLegalColorAlgoCompiled: the compiled Legal-Color equals its
// per-vertex form under Lockstep on the family zoo — with the service's
// depth-0 plan (flat chains and merge alone) and with a plan of depth >= 1
// (flat auxiliary chain, interpreted levels, flat leaf on the same Tally) —
// in both start modes, for two seeds.
func TestLegalColorAlgoCompiled(t *testing.T) {
	for name, g := range testutil.CompiledFamilies() {
		delta := g.MaxDegree()
		plans := []*Plan{deepVertexPlan(t, g.N(), delta)}
		if pl, err := AutoPlan(delta, 2, 2, 9, false); err == nil {
			plans = append(plans, pl) // Δ = 0 has no plan
		}
		for _, pl := range plans {
			for _, mode := range []Mode{StartIDs, StartAux} {
				for seed := int64(0); seed < 2; seed++ {
					if err := checkLegalColorAlgo(t, name, g, g.N(), delta, pl, mode, dist.WithSeed(seed)); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
	// Bounded neighborhood independence at a degree where the plan
	// recurses for real, shuffled identifiers included.
	for _, tc := range boundedNIGraphs() {
		for _, g := range []*graph.Graph{tc.g, graph.ShuffledIDs(tc.g, 7)} {
			pl, err := AutoPlan(g.MaxDegree(), tc.c, 1, 8, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []Mode{StartIDs, StartAux} {
				if err := checkLegalColorAlgo(t, tc.name, g, g.N(), g.MaxDegree(), pl, mode); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
		}
	}
}

// TestLegalColorAlgoRoundCap: every round cap from 1 to LegalRounds trips
// with Lockstep's error text (partial Stats included) in the flat chains,
// the interpreted levels and the flat merge; the full cost runs clean.
func TestLegalColorAlgoRoundCap(t *testing.T) {
	g := graph.PowerOfCycle(40, 3)
	for _, pl := range []*Plan{mustPlan(t, g.MaxDegree(), 2, 9), deepVertexPlan(t, g.N(), g.MaxDegree())} {
		for _, mode := range []Mode{StartIDs, StartAux} {
			full, err := LegalRounds(g.N(), g.MaxDegree(), pl, mode)
			if err != nil {
				t.Fatal(err)
			}
			for cap := 1; cap <= full; cap++ {
				err := checkLegalColorAlgo(t, "cap", g, g.N(), g.MaxDegree(), pl, mode, dist.WithMaxRounds(cap))
				if (err != nil) != (cap < full) {
					t.Fatalf("depth %d mode %d: cap %d of %d: error %v", pl.Depth(), mode, cap, full, err)
				}
			}
		}
	}
}

func mustPlan(t testing.TB, delta, b, p int) *Plan {
	t.Helper()
	pl, err := AutoPlan(delta, 2, b, p, false)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// lyingPlan returns pl with its leaf degree bound Λ⁽ʳ⁾ replaced by leaf and
// the palette sizes recomputed: a recursion that promises smaller leaf
// subgraphs than the graph delivers.
func lyingPlan(pl *Plan, leaf int) *Plan {
	l := *pl
	r := pl.Depth()
	l.Levels = append(append([]int(nil), pl.Levels[:r]...), leaf)
	l.Thetas = make([]int, r+1)
	l.Thetas[r] = leaf + 1
	for i := r - 1; i >= 0; i-- {
		l.Thetas[i] = l.P * l.Thetas[i+1]
	}
	return &l
}

// TestLegalColorAlgoDeclines: where the per-vertex form may panic — a leaf
// subgraph above Λ⁽ʳ⁾, identifiers beyond nBound, a degree above the
// auxiliary chain's bound — the compiled form declines and interprets it,
// so even the panics surface with the per-vertex form's error text.
func TestLegalColorAlgoDeclines(t *testing.T) {
	panicked := 0
	for _, g := range []*graph.Graph{
		graph.GNM(40, 400, 3),
		graph.ShuffledIDs(graph.GNM(40, 400, 4), 1),
		graph.PowerOfCycle(60, 6),
	} {
		// One p = 2 level leaves leaf subgraphs near Δ/2, far above 1.
		delta := g.MaxDegree()
		pl := lyingPlan(&Plan{B: 1, P: 2, Lambda: 1, C: 1, Delta: delta, Levels: []int{delta, 0}, PhiDef: []int{delta / 2}}, 1)
		for _, mode := range []Mode{StartIDs, StartAux} {
			if err := checkLegalColorAlgo(t, "leaf", g, g.N(), g.MaxDegree(), pl, mode); err != nil {
				if !strings.Contains(err.Error(), "panicked") {
					t.Fatalf("unexpected error %v", err)
				}
				panicked++
			}
		}
	}
	if panicked == 0 {
		t.Fatal("no leaf chain overran its budget; the decline path went untested")
	}
	// n = 200 at Δ = 6 makes both first chains real Linial steps, whose
	// palette 1..n-1 rejects identifier n.
	g := graph.PowerOfCycle(200, 3)
	pl := mustPlan(t, g.MaxDegree(), 2, 9)
	for _, mode := range []Mode{StartIDs, StartAux} {
		if err := checkLegalColorAlgo(t, "ids", g, g.N()-1, g.MaxDegree(), pl, mode); err == nil {
			t.Fatalf("mode %d: identifier n accepted by a chain over palette 1..n-1", mode)
		}
		checkLegalColorAlgo(t, "aux-degree", g, g.N(), g.MaxDegree()-3, pl, mode)
	}
}

// FuzzFlatLegalAgree: an arbitrary graph (edges from stream, identifiers
// shuffled by idSeed) runs the compiled Legal-Color and its per-vertex form
// under Lockstep, with an auto plan whose p, degree bound and c vary with
// slack, and whose leaf bound slack may shrink below what the graph
// delivers (the decline path); both start modes must agree byte for byte,
// errors included.
func FuzzFlatLegalAgree(f *testing.F) {
	f.Add(6, []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0}, int64(0), uint8(0))
	f.Add(12, []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0}, int64(9), uint8(7))
	f.Add(30, []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 0, 7, 1, 8, 2, 9, 3, 10, 9, 10, 11, 12, 13, 14}, int64(3), uint8(35))
	f.Add(40, []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 1, 2, 1, 3, 2, 3, 4, 5, 4, 6, 5, 6, 7, 8, 7, 9, 8, 9, 0, 7, 1, 8, 2, 9, 3, 7, 4, 8, 5, 9, 6, 7}, int64(5), uint8(64+32+3))
	f.Add(1, []byte{}, int64(1), uint8(0))
	f.Fuzz(func(t *testing.T, n int, stream []byte, idSeed int64, slack uint8) {
		if n < 1 || n > 48 {
			return
		}
		if len(stream) > 320 {
			stream = stream[:320]
		}
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(stream); i += 2 {
			b.TryAddEdge(int(stream[i])%n, int(stream[i+1])%n)
		}
		g := graph.ShuffledIDs(b.Build(), idSeed)
		delta := g.MaxDegree()
		if delta == 0 {
			return
		}
		// slack: bits 0-1 raise the plan's Δ, bits 2-4 pick p, bit 5 c,
		// bit 6 shrinks a recursing plan's leaf bound to 1.
		c := 1 + int(slack>>5&1)
		planDelta := delta + int(slack&3)*8
		pl, err := AutoPlan(planDelta, c, 1, 2+int(slack>>2&7), false)
		if err != nil {
			return
		}
		if slack&64 != 0 && pl.Depth() > 0 {
			pl = lyingPlan(pl, 1)
		}
		rng := rand.New(rand.NewSource(idSeed))
		for _, mode := range []Mode{StartIDs, StartAux} {
			checkLegalColorAlgo(t, "fuzz", g, g.N(), delta, pl, mode, dist.WithSeed(rng.Int63()))
		}
	})
}
