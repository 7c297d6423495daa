package exp

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// TestMutationStreamValid replays every generator kind against a mirror
// edge set: each emitted op must be valid at its position, and the stream
// must be deterministic (same spec, same ops).
func TestMutationStreamValid(t *testing.T) {
	streams := []MutationStream{
		{Kind: "mix", Base: GraphSpec{Family: "gnm", N: 30, M: 60, Seed: 1}, Ops: 300, Seed: 2},
		{Kind: "mix", Base: GraphSpec{Family: "path", N: 10}, Ops: 200, Seed: 3, InsertPct: 20},
		{Kind: "window", Base: GraphSpec{Family: "cycle", N: 16}, Ops: 250, Seed: 4, Window: 10},
		{Kind: "hotspot", Base: GraphSpec{Family: "gnm", N: 40, M: 80, Seed: 5}, Ops: 300, Seed: 6, Hot: 6},
	}
	for _, s := range streams {
		t.Run(s.String(), func(t *testing.T) {
			g, muts, err := s.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if len(muts) != s.Ops {
				t.Fatalf("generated %d ops, want %d", len(muts), s.Ops)
			}
			edges := make(map[graph.Edge]bool)
			for _, e := range g.Edges() {
				edges[e] = true
			}
			for i, mut := range muts {
				if mut.U == mut.V || mut.U < 0 || mut.V < 0 || mut.U >= g.N() || mut.V >= g.N() {
					t.Fatalf("op %d: bad endpoints %+v", i, mut)
				}
				e := graph.Edge{U: min(mut.U, mut.V), V: max(mut.U, mut.V)}
				switch mut.Op {
				case OpInsert:
					if edges[e] {
						t.Fatalf("op %d: insert of existing edge %v", i, e)
					}
					edges[e] = true
				case OpDelete:
					if !edges[e] {
						t.Fatalf("op %d: delete of non-edge %v", i, e)
					}
					delete(edges, e)
				default:
					t.Fatalf("op %d: unknown op %q", i, mut.Op)
				}
			}
			_, again, err := s.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(muts, again) {
				t.Fatal("stream is not deterministic")
			}
		})
	}
}

// TestMutationStreamWindow: the window generator's live-insert count never
// exceeds the window, and deletes retire the oldest insert first.
func TestMutationStreamWindow(t *testing.T) {
	s := MutationStream{Kind: "window", Base: GraphSpec{Family: "path", N: 40}, Ops: 100, Seed: 9, Window: 7}
	_, muts, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var live []Mutation
	for i, mut := range muts {
		switch mut.Op {
		case OpInsert:
			live = append(live, mut)
			if len(live) > 7 {
				t.Fatalf("op %d: %d live inserts exceed window 7", i, len(live))
			}
		case OpDelete:
			if len(live) == 0 {
				t.Fatalf("op %d: delete with no live inserts", i)
			}
			if oldest := live[0]; mut.U != oldest.U || mut.V != oldest.V {
				t.Fatalf("op %d: deleted %v, oldest live is %v", i, mut, oldest)
			}
			live = live[1:]
		}
	}
}

// TestMutationStreamHotspot: hotspot inserts stay inside the hot pool.
func TestMutationStreamHotspot(t *testing.T) {
	s := MutationStream{Kind: "hotspot", Base: GraphSpec{Family: "gnm", N: 50, M: 100, Seed: 7}, Ops: 200, Seed: 8, Hot: 5}
	_, muts, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i, mut := range muts {
		if mut.Op == OpInsert && (mut.U >= 5 || mut.V >= 5) {
			t.Fatalf("op %d: hotspot insert %+v outside pool [0,5)", i, mut)
		}
	}
}

// TestMutationStreamErrors pins the rejection paths.
func TestMutationStreamErrors(t *testing.T) {
	bad := []MutationStream{
		{Kind: "spiral", Base: GraphSpec{Family: "path", N: 8}, Ops: 10},
		{Kind: "mix", Base: GraphSpec{Family: "nope", N: 8}, Ops: 10},
		{Kind: "mix", Base: GraphSpec{Family: "path", N: 8}, Ops: -1},
		{Kind: "mix", Base: GraphSpec{Family: "path", N: 8}, Ops: 10, InsertPct: 101},
		{Kind: "mix", Base: GraphSpec{Family: "path", N: 1}, Ops: 10},
	}
	for _, s := range bad {
		if _, _, err := s.Generate(); err == nil {
			t.Errorf("%v: Generate succeeded, want error", s)
		}
	}
}

// TestMutationStreamEmptyIsError: a window stream seeded like its gnm base
// replays the base's own pair draws, so every candidate insert is already an
// edge. Generate must report that instead of returning an empty workload,
// while the mix stream the churn benchmark uses on the same base (same
// seed) still generates in full.
func TestMutationStreamEmptyIsError(t *testing.T) {
	base := GraphSpec{Family: "gnm", N: 512, M: 1536, Seed: 1}
	s := MutationStream{Kind: "window", Base: base, Ops: 64, Seed: 1}
	if _, muts, err := s.Generate(); err == nil {
		t.Fatalf("%v: generated %d ops and no error, want an error", s, len(muts))
	}
	mix := MutationStream{Kind: "mix", Base: base, Ops: 64, Seed: 1}
	if _, muts, err := mix.Generate(); err != nil || len(muts) != mix.Ops {
		t.Fatalf("%v: %d ops, err %v; want %d ops", mix, len(muts), err, mix.Ops)
	}
	if _, muts, err := (MutationStream{Kind: "window", Base: base}).Generate(); err != nil || len(muts) != 0 {
		t.Fatalf("Ops=0 stream: %d ops, err %v; want an empty stream", len(muts), err)
	}
}
