package dynamic

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
)

// TestChurnMatchesCanonicalRecompute is the dynamic subsystem's contract
// test: for every churn generator kind, after every single mutation of the
// stream the maintained coloring must be legal AND byte-identical to the
// documented canonical recompute (CanonicalColors) of the mutated graph.
func TestChurnMatchesCanonicalRecompute(t *testing.T) {
	streams := []exp.MutationStream{
		{Kind: "mix", Base: exp.GraphSpec{Family: "gnm", N: 40, M: 90, Seed: 2}, Ops: 120, Seed: 5},
		{Kind: "mix", Base: exp.GraphSpec{Family: "tree", N: 32, Seed: 4}, Ops: 100, Seed: 6, InsertPct: 70},
		{Kind: "window", Base: exp.GraphSpec{Family: "cycle", N: 30}, Ops: 120, Seed: 7, Window: 12},
		{Kind: "hotspot", Base: exp.GraphSpec{Family: "gnm", N: 48, M: 110, Seed: 8}, Ops: 120, Seed: 9, Hot: 6},
	}
	for _, s := range streams {
		t.Run(s.String(), func(t *testing.T) {
			base, muts, err := s.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if len(muts) != s.Ops {
				t.Fatalf("generated %d ops, want %d", len(muts), s.Ops)
			}
			m, err := New(base, Config{Engine: dist.Sharded})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if _, _, err := m.Apply(muts); err != nil {
				t.Fatal(err)
			}
			g := m.Graph()
			got := m.Colors()
			if err := graph.CheckEdgeColoring(g, got); err != nil {
				t.Fatalf("maintained coloring illegal: %v", err)
			}
			if want := CanonicalColors(g); !reflect.DeepEqual(got, want) {
				t.Fatalf("maintained coloring differs from canonical recompute of the mutated graph")
			}
			if m.Fingerprint() != g.EdgeSetFingerprint() {
				t.Fatal("maintained fingerprint differs from the mutated graph's")
			}
		})
	}
}

// TestChurnStepwise re-checks the contract after every individual mutation
// (not just at the end), on a smaller stream, for all three engines.
func TestChurnStepwise(t *testing.T) {
	s := exp.MutationStream{Kind: "mix", Base: exp.GraphSpec{Family: "gnm", N: 24, M: 50, Seed: 3}, Ops: 60, Seed: 11}
	base, muts, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []dist.Engine{dist.Goroutines, dist.Lockstep, dist.Sharded, dist.Compiled} {
		m, err := New(base, Config{Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		for i, mut := range muts {
			if _, _, err := m.Apply([]exp.Mutation{mut}); err != nil {
				t.Fatalf("%v: op %d: %v", e, i, err)
			}
			g := m.Graph()
			got := m.Colors()
			if err := graph.CheckEdgeColoring(g, got); err != nil {
				t.Fatalf("%v: op %d: illegal: %v", e, i, err)
			}
			if want := CanonicalColors(g); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: op %d (%s %d-%d): diverged from canonical recompute", e, i, mut.Op, mut.U, mut.V)
			}
		}
		m.Close()
	}
}

// TestRepairScopeBounded is the locality claim in numbers: on a large
// graph, a single-edge mutation's repair must activate strictly less of the
// runtime than a full canonical run — and in the typical case, orders of
// magnitude less.
func TestRepairScopeBounded(t *testing.T) {
	g := graph.GNM(4000, 12000, 13)
	m, err := New(g, Config{Engine: dist.Sharded})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, fullStats, err := CanonicalRun(g, dist.WithEngine(dist.Sharded))
	if err != nil {
		t.Fatal(err)
	}

	var total Report
	muts := []exp.Mutation{
		{Op: exp.OpInsert, U: 17, V: 3977},
		{Op: exp.OpInsert, U: 0, V: 2048},
		{Op: exp.OpDelete, U: 17, V: 3977},
		{Op: exp.OpInsert, U: 1234, V: 2345},
	}
	for _, mut := range muts {
		rep, applied, err := m.Apply([]exp.Mutation{mut})
		if err != nil {
			t.Fatal(err)
		}
		if applied != 1 {
			t.Fatalf("applied = %d, want 1", applied)
		}
		if rep.Stats.Activations >= fullStats.Activations {
			t.Fatalf("%s %d-%d: repair activations %d not below full-run activations %d",
				mut.Op, mut.U, mut.V, rep.Stats.Activations, fullStats.Activations)
		}
		if rep.Vertices >= g.N()/10 {
			t.Fatalf("%s %d-%d: repair touched %d vertices of %d — not local",
				mut.Op, mut.U, mut.V, rep.Vertices, g.N())
		}
		total.add(rep)
	}
	if total.Stats.Activations == 0 {
		t.Fatal("no repair activations recorded at all")
	}
	st := m.Stats()
	if st.FullRuns != 1 || st.Mutations != int64(len(muts)) {
		t.Fatalf("stats = %+v, want 1 full run and %d mutations", st, len(muts))
	}
	if st.RepairActivations >= st.FullActivations {
		t.Fatalf("cumulative repair activations %d not below the single full run's %d",
			st.RepairActivations, st.FullActivations)
	}

	got := m.Colors()
	if want := CanonicalColors(m.Graph()); !reflect.DeepEqual(got, want) {
		t.Fatal("maintained coloring diverged from canonical recompute")
	}
}

// TestDeleteOftenFree: deleting a leaf edge colored last cannot cascade —
// the repair must be a no-op with zero dirty edges and no dist run.
func TestDeleteOftenFree(t *testing.T) {
	// Path 0-1-2: edge (1,2) is lexicographically last, nothing succeeds it.
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 2)
	m, err := New(b.Build(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rep, err := m.Delete(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dirty != 0 || rep.Stats.Rounds != 0 {
		t.Fatalf("leaf delete repaired %+v, want a free repair", rep)
	}
	if st := m.Stats(); st.Repairs != 0 {
		t.Fatalf("repairs = %d, want 0", st.Repairs)
	}
}

// TestCompaction: frequent compaction must not disturb the coloring, and
// the auto-compaction threshold must fire.
func TestCompaction(t *testing.T) {
	s := exp.MutationStream{Kind: "window", Base: exp.GraphSpec{Family: "gnm", N: 20, M: 40, Seed: 1}, Ops: 80, Seed: 2, Window: 8}
	base, muts, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(base, Config{CompactPending: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Apply(muts); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Compactions == 0 {
		t.Fatal("auto-compaction never fired")
	}
	g := m.Graph()
	if err := graph.CheckEdgeColoring(g, m.Colors()); err != nil {
		t.Fatal(err)
	}
	if want := CanonicalColors(g); !reflect.DeepEqual(m.Colors(), want) {
		t.Fatal("coloring diverged across compactions")
	}
}

// TestMaintainerErrors pins the user-facing failure modes.
func TestMaintainerErrors(t *testing.T) {
	m, err := New(graph.Cycle(5), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Insert(0, 1); err == nil {
		t.Fatal("inserting an existing edge succeeded")
	}
	if _, err := m.Delete(0, 2); err == nil {
		t.Fatal("deleting a non-edge succeeded")
	}
	if _, applied, err := m.Apply([]exp.Mutation{{Op: "upsert", U: 0, V: 2}}); err == nil || applied != 0 {
		t.Fatalf("unknown op: applied=%d err=%v, want 0 applied and an error", applied, err)
	}
	// Failed mutations must not have perturbed the maintained state.
	if err := graph.CheckEdgeColoring(m.Graph(), m.Colors()); err != nil {
		t.Fatal(err)
	}
	if m.M() != 5 || m.N() != 5 || m.MaxDegree() != 2 {
		t.Fatalf("shape drifted: n=%d m=%d Δ=%d", m.N(), m.M(), m.MaxDegree())
	}
	m.Close()
	if _, err := m.Insert(0, 2); err == nil {
		t.Fatal("mutation after Close succeeded")
	}
}

// TestMaintainerHoldsNoParkedGoroutines: a maintainer keeps no runners
// between mutations. Under the goroutine engine every repair runs its vertex
// goroutines to completion, so after a stream of mutations — and before Close
// — the goroutine count is back to where it was before New.
func TestMaintainerHoldsNoParkedGoroutines(t *testing.T) {
	s := exp.MutationStream{Kind: "mix", Base: exp.GraphSpec{Family: "gnm", N: 64, M: 160, Seed: 5}, Ops: 50, Seed: 3}
	base, muts, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	m, err := New(base, Config{Engine: dist.Goroutines})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Apply(muts); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Repairs == 0 {
		t.Fatal("no repair ran; the stream exercises nothing")
	}
	// Finished runs' goroutines may still be returning; give them a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines alive after %d mutations, %d before New", n, len(muts), before)
	}
}

// TestColorOf exercises the point query.
func TestColorOf(t *testing.T) {
	m, err := New(graph.Path(4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if c, ok := m.ColorOf(1, 0); !ok || c < 1 {
		t.Fatalf("ColorOf(1,0) = %d,%v", c, ok)
	}
	if _, ok := m.ColorOf(0, 3); ok {
		t.Fatal("ColorOf reported a color for a non-edge")
	}
}
