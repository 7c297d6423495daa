package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// mirror is the reference implementation an Overlay is checked against: a
// plain edge-set rebuilt into a Graph for every query.
type mirror struct {
	n     int
	edges map[Edge]struct{}
}

func (m *mirror) graph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(m.n)
	for e := range m.edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatalf("mirror add %v: %v", e, err)
		}
	}
	return b.Build()
}

// TestOverlayAgainstMirror drives a random insert/delete stream through an
// Overlay and checks every tracked quantity — M, Deg, Δ, HasEdge, adjacency,
// fingerprint, materialization — against a from-scratch rebuild after every
// mutation.
func TestOverlayAgainstMirror(t *testing.T) {
	base := GNM(24, 40, 7)
	o, err := NewOverlay(base)
	if err != nil {
		t.Fatal(err)
	}
	m := &mirror{n: base.N(), edges: make(map[Edge]struct{})}
	for _, e := range base.Edges() {
		m.edges[e] = struct{}{}
	}
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 400; step++ {
		u, v := rng.Intn(base.N()), rng.Intn(base.N())
		if u == v {
			continue
		}
		e := canonical(u, v)
		if _, ok := m.edges[e]; ok {
			if err := o.Delete(u, v); err != nil {
				t.Fatalf("step %d: delete (%d,%d): %v", step, u, v, err)
			}
			delete(m.edges, e)
		} else {
			if err := o.Insert(u, v); err != nil {
				t.Fatalf("step %d: insert (%d,%d): %v", step, u, v, err)
			}
			m.edges[e] = struct{}{}
		}
		if step%16 == 0 && step > 0 && rng.Intn(3) == 0 {
			o.Compact()
		}
		want := m.graph(t)
		if o.M() != want.M() {
			t.Fatalf("step %d: M = %d, want %d", step, o.M(), want.M())
		}
		if o.MaxDegree() != want.MaxDegree() {
			t.Fatalf("step %d: Δ = %d, want %d", step, o.MaxDegree(), want.MaxDegree())
		}
		for x := 0; x < base.N(); x++ {
			if o.Deg(x) != want.Deg(x) {
				t.Fatalf("step %d: deg(%d) = %d, want %d", step, x, o.Deg(x), want.Deg(x))
			}
			got := o.AppendNeighbors(x, nil)
			wantN := want.Neighbors(x)
			if len(got) != len(wantN) {
				t.Fatalf("step %d: neighbors(%d) = %v, want %v", step, x, got, wantN)
			}
			for i := range got {
				if got[i] != wantN[i] {
					t.Fatalf("step %d: neighbors(%d) = %v, want %v", step, x, got, wantN)
				}
			}
			bound := (7*x + step) % (base.N() + 1)
			below := o.AppendNeighborsBelow(x, bound, nil)
			k := 0
			for k < len(got) && int(got[k]) < bound {
				k++
			}
			if !slices.Equal(below, got[:k]) {
				t.Fatalf("step %d: neighbors(%d) below %d = %v, want %v", step, x, bound, below, got[:k])
			}
		}
		if o.Fingerprint() != want.EdgeSetFingerprint() {
			t.Fatalf("step %d: incremental fingerprint diverged from edge-set hash", step)
		}
		mat := o.Materialize()
		if mat.Fingerprint() != want.Fingerprint() {
			t.Fatalf("step %d: materialized graph differs from mirror", step)
		}
	}
}

// TestOverlayErrors pins the rejection paths: duplicates, self-loops, range,
// deleting non-edges, and non-default identifier bases.
func TestOverlayErrors(t *testing.T) {
	base := Path(4) // edges (0,1)(1,2)(2,3)
	o, err := NewOverlay(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ u, v int }{{0, 0}, {-1, 2}, {0, 4}} {
		if err := o.Insert(bad.u, bad.v); err == nil {
			t.Fatalf("insert (%d,%d) succeeded, want error", bad.u, bad.v)
		}
	}
	if err := o.Insert(1, 0); err == nil {
		t.Fatal("inserting an existing base edge succeeded")
	}
	if err := o.Insert(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(2, 0); err == nil {
		t.Fatal("inserting an existing inserted edge succeeded")
	}
	if err := o.Delete(0, 3); err == nil {
		t.Fatal("deleting a non-edge succeeded")
	}

	perm := Path(3)
	if err := perm.SetIDs([]int{2, 1, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewOverlay(perm); err == nil {
		t.Fatal("NewOverlay accepted a permuted-id base")
	}
}

// TestOverlayCancellation: deleting an inserted edge and re-inserting a
// deleted base edge must both restore the original fingerprint exactly.
func TestOverlayCancellation(t *testing.T) {
	base := Cycle(8)
	o, err := NewOverlay(base)
	if err != nil {
		t.Fatal(err)
	}
	fp0 := o.Fingerprint()
	if err := o.Insert(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(4, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(1, 0); err != nil {
		t.Fatal(err)
	}
	if o.Pending() != 0 {
		t.Fatalf("pending = %d after cancelling mutations, want 0", o.Pending())
	}
	if o.Fingerprint() != fp0 {
		t.Fatal("fingerprint did not return to the base value")
	}
	if o.Fingerprint() != base.EdgeSetFingerprint() {
		t.Fatal("fingerprint disagrees with base EdgeSetFingerprint")
	}
}
