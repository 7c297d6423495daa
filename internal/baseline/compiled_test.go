package baseline

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// TestGreedyVertexCompiledFamilies: the compiled greedy vertex coloring is
// byte-identical (Outputs and Stats) to the scheduled form on every family
// and seed, and legal.
func TestGreedyVertexCompiledFamilies(t *testing.T) {
	for name, g := range testutil.CompiledFamilies() {
		for seed := int64(0); seed < 2; seed++ {
			want, err := dist.Run(g, GreedyVertexProcess, dist.WithSeed(seed), dist.WithEngine(dist.Lockstep))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := dist.RunAlgo(g, GreedyVertexAlgo(), dist.WithSeed(seed), dist.WithEngine(dist.Compiled))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got.Outputs, want.Outputs) {
				t.Fatalf("%s seed %d: compiled greedy vertex colors diverge", name, seed)
			}
			if got.Stats != want.Stats {
				t.Fatalf("%s seed %d: stats diverge: compiled %v, lockstep %v", name, seed, got.Stats, want.Stats)
			}
			if g.M() > 0 {
				if err := graph.CheckVertexColoring(g, got.Outputs); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestGreedyEdgeCompiledFamilies: same sweep for the compiled greedy edge
// coloring.
func TestGreedyEdgeCompiledFamilies(t *testing.T) {
	for name, g := range testutil.CompiledFamilies() {
		for seed := int64(0); seed < 2; seed++ {
			want, err := dist.Run(g, GreedyEdgeProcess, dist.WithSeed(seed), dist.WithEngine(dist.Lockstep))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := dist.RunAlgo(g, GreedyEdgeAlgo(), dist.WithSeed(seed), dist.WithEngine(dist.Compiled))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got.Outputs, want.Outputs) {
				t.Fatalf("%s seed %d: compiled greedy edge colors diverge\n got %v\nwant %v",
					name, seed, got.Outputs, want.Outputs)
			}
			if got.Stats != want.Stats {
				t.Fatalf("%s seed %d: stats diverge: compiled %v, lockstep %v", name, seed, got.Stats, want.Stats)
			}
			colors, err := graph.MergePortColors(g, got.Outputs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := graph.CheckEdgeColoring(g, colors); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestGreedyCompiledAgainstAllEngines: the compiled forms agree with every
// scheduler, not just Lockstep, on a representative dense instance.
func TestGreedyCompiledAgainstAllEngines(t *testing.T) {
	g := graph.GNM(150, 900, 11)
	vc, err := dist.RunAlgo(g, GreedyVertexAlgo(), dist.WithEngine(dist.Compiled))
	if err != nil {
		t.Fatal(err)
	}
	ec, err := dist.RunAlgo(g, GreedyEdgeAlgo(), dist.WithEngine(dist.Compiled))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []dist.Engine{dist.Goroutines, dist.Lockstep, dist.Sharded} {
		vw, err := dist.Run(g, GreedyVertexProcess, dist.WithEngine(e))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vc.Outputs, vw.Outputs) || vc.Stats != vw.Stats {
			t.Fatalf("vertex: compiled vs %v: %v vs %v", e, vc.Stats, vw.Stats)
		}
		ew, err := dist.Run(g, GreedyEdgeProcess, dist.WithEngine(e))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ec.Outputs, ew.Outputs) || ec.Stats != ew.Stats {
			t.Fatalf("edge: compiled vs %v: %v vs %v", e, ec.Stats, ew.Stats)
		}
	}
}

// TestGreedyCompiledRoundCap: the closed-form Stats replay reproduces the
// scheduler's round-cap error — including the partial Stats in the error
// text — when the greedy chain outruns the cap.
func TestGreedyCompiledRoundCap(t *testing.T) {
	g := graph.Path(40) // greedy vertex needs ~n rounds on an ID-ordered path
	_, werr := dist.Run(g, GreedyVertexProcess, dist.WithEngine(dist.Lockstep), dist.WithMaxRounds(5))
	_, gerr := dist.RunAlgo(g, GreedyVertexAlgo(), dist.WithEngine(dist.Compiled), dist.WithMaxRounds(5))
	if werr == nil || gerr == nil {
		t.Fatalf("want round-cap errors, got lockstep %v, compiled %v", werr, gerr)
	}
	if gerr.Error() != werr.Error() {
		t.Fatalf("cap error text diverges:\ncompiled: %v\nlockstep: %v", gerr, werr)
	}
	if !strings.Contains(gerr.Error(), "round cap 5") {
		t.Fatalf("err = %v", gerr)
	}

	_, ewerr := dist.Run(g, GreedyEdgeProcess, dist.WithEngine(dist.Lockstep), dist.WithMaxRounds(5))
	_, egerr := dist.RunAlgo(g, GreedyEdgeAlgo(), dist.WithEngine(dist.Compiled), dist.WithMaxRounds(5))
	if ewerr == nil || egerr == nil {
		t.Fatalf("want round-cap errors, got lockstep %v, compiled %v", ewerr, egerr)
	}
	if egerr.Error() != ewerr.Error() {
		t.Fatalf("edge cap error text diverges:\ncompiled: %v\nlockstep: %v", egerr, ewerr)
	}
}
