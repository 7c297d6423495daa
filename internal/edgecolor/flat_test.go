package edgecolor

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/panconesi"
	"repro/internal/testutil"
)

// deepPlan returns the cheapest (fewest rounds on n vertices) auto plan
// with at least one defective level for maximum degree delta, so the
// compiled form's interpreted prefix is exercised.
func deepPlan(t *testing.T, n, delta int) *core.Plan {
	t.Helper()
	var best *core.Plan
	for b := 1; b <= 2; b++ {
		for p := 2; p <= 12; p++ {
			pl, err := core.AutoPlan(delta, 2, b, p, true)
			if err != nil || pl.Depth() == 0 {
				continue
			}
			if best == nil || Rounds(n, pl, Wide) < Rounds(n, best, Wide) {
				best = pl
			}
		}
	}
	if best == nil {
		t.Fatalf("no plan with a defective level for Δ=%d", delta)
	}
	return best
}

// checkLegalEdgeAlgo runs the LegalEdgeAlgo bundle compiled and its
// per-vertex form under Lockstep, and requires byte-identical results:
// equal error text, or equal Outputs and Stats. It returns the error.
func checkLegalEdgeAlgo(t *testing.T, name string, g *graph.Graph, pl *core.Plan, mode MsgMode, opts ...dist.Option) error {
	t.Helper()
	algo, err := LegalEdgeAlgo(g.MaxDegree(), pl, mode)
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

// TestLegalEdgeAlgoCompiled: the compiled edge Legal-Color equals its
// per-vertex form under Lockstep — on the family zoo with the service's
// default plan (depth 0: the flat leaf alone), and on dense graphs with a
// plan of depth >= 1 (interpreted defective levels, then the flat leaf on
// the same Tally) — in both message modes, for two seeds.
func TestLegalEdgeAlgoCompiled(t *testing.T) {
	for name, g := range testutil.CompiledFamilies() {
		pl, err := core.AutoPlan(g.MaxDegree(), 2, 2, 6, true)
		if err != nil {
			continue // Δ = 0: no plan
		}
		for seed := int64(0); seed < 2; seed++ {
			for _, mode := range []MsgMode{Wide, Short} {
				checkLegalEdgeAlgo(t, name, g, pl, mode, dist.WithSeed(seed))
			}
		}
	}
	for name, g := range map[string]*graph.Graph{
		"dense":          graph.TargetDegreeGNM(40, 24, 3),
		"dense-shuffled": graph.ShuffledIDs(graph.TargetDegreeGNM(36, 24, 4), 2),
	} {
		pl := deepPlan(t, g.N(), g.MaxDegree())
		checkLegalEdgeAlgo(t, name, g, pl, Wide, dist.WithSeed(0))
		checkLegalEdgeAlgo(t, name, g, pl, Short, dist.WithSeed(1))
	}
}

// TestLegalEdgeAlgoRoundCap: with a depth >= 1 plan, round caps inside the
// interpreted defective levels (every 16th, then every cap from just before
// the seam) and every cap inside the flat leaf trip with Lockstep's error
// text (partial Stats included); the full cost runs clean.
func TestLegalEdgeAlgoRoundCap(t *testing.T) {
	g := graph.TargetDegreeGNM(30, 24, 6)
	pl := deepPlan(t, g.N(), g.MaxDegree())
	full := Rounds(g.N(), pl, Wide)
	seam := full - panconesi.Rounds(g.N(), pl.LeafBound())
	for cap := 1; cap <= full; cap++ {
		if cap < seam-2 && cap%16 != 1 {
			continue
		}
		if err := checkLegalEdgeAlgo(t, "cap", g, pl, Wide, dist.WithMaxRounds(cap)); (err != nil) != (cap < full) {
			t.Fatalf("cap %d of %d: error %v", cap, full, err)
		}
	}
}
