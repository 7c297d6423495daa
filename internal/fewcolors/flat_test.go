package fewcolors_test

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/fewcolors"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// TestFlatFamilies: the flat compiled form (flat leaf plus flat
// vacate/descend sweeps) is byte-identical (Outputs and Stats) to the
// per-vertex form under Lockstep on every family and seed.
func TestFlatFamilies(t *testing.T) {
	algo := fewcolors.Algo()
	for name, g := range testutil.CompiledFamilies() {
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

// TestFlatRoundCap: every round cap up to the full cost — inside the
// leaf's labeling, Cole–Vishkin and stage rounds and inside the sweeps —
// trips the flat form with Lockstep's error text, partial Stats included.
func TestFlatRoundCap(t *testing.T) {
	g := graph.ShuffledIDs(graph.GNM(24, 50, 3), 5)
	algo := fewcolors.Algo()
	full := fewcolors.Rounds(g.N(), g.MaxDegree())
	for cap := 1; cap <= full; cap++ {
		want, werr := dist.Run(g, algo.Vertex, dist.WithMaxRounds(cap), dist.WithEngine(dist.Lockstep))
		got, gerr := dist.RunAlgo(g, algo, dist.WithMaxRounds(cap), dist.WithEngine(dist.Compiled))
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("cap %d: lockstep %v, compiled %v", cap, werr, gerr)
		}
		if werr == nil && (cap != full || got.Stats != want.Stats) {
			t.Fatalf("cap %d: ran clean with %v (lockstep %v)", cap, got.Stats, want.Stats)
		}
	}
}
