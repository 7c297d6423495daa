package forest

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

func TestCVRoundsLogStar(t *testing.T) {
	if CVRounds(6) != 0 {
		t.Fatalf("CVRounds(6) = %d, want 0", CVRounds(6))
	}
	if CVRounds(7) != 1 {
		t.Fatalf("CVRounds(7) = %d, want 1", CVRounds(7))
	}
	// log*-like growth: huge identifier spaces need few rounds.
	if r := CVRounds(1 << 30); r > 5 {
		t.Fatalf("CVRounds(2^30) = %d, want <= 5", r)
	}
	if r1, r2 := CVRounds(1<<20), CVRounds(1<<40); r2 > r1+1 {
		t.Fatalf("CVRounds grew too fast: %d -> %d", r1, r2)
	}
}

func TestNextPalette(t *testing.T) {
	tests := []struct{ in, want int }{
		{1 << 20, 40}, {256, 16}, {7, 6}, {8, 6}, {6, 6},
	}
	for _, tt := range tests {
		if got := nextPalette(tt.in); got != tt.want {
			t.Errorf("nextPalette(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestCVStepSeparatesAdjacent(t *testing.T) {
	// For any distinct own/parent, the produced pairs differ whenever the
	// parent also reduces against its own distinct grandparent color.
	for own := 0; own < 64; own++ {
		for parent := 0; parent < 64; parent++ {
			if own == parent {
				continue
			}
			for grand := 0; grand < 64; grand++ {
				if grand == parent {
					continue
				}
				if cvStep(own, parent) == cvStep(parent, grand) {
					t.Fatalf("cvStep collision: own=%d parent=%d grand=%d", own, parent, grand)
				}
			}
		}
	}
}

// runLabels runs AssignLabels on g and returns per-vertex memberships along
// with the run result for inspection.
func runLabels(t *testing.T, g *graph.Graph, degBound int) []Membership {
	t.Helper()
	res, err := dist.Run(g, func(v dist.Process) Membership {
		return AssignLabels(v, nil, degBound)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 1 {
		t.Fatalf("AssignLabels took %d rounds, want 1", res.Stats.Rounds)
	}
	return res.Outputs
}

func TestAssignLabelsDecomposesIntoForests(t *testing.T) {
	g := graph.GNM(80, 400, 11)
	degBound := g.MaxDegree()
	ms := runLabels(t, g, degBound)
	// Both endpoints agree on each edge's label; labels partition edges;
	// per vertex, out-labels are distinct.
	for v := 0; v < g.N(); v++ {
		seen := map[int]bool{}
		for port, u := range g.Neighbors(v) {
			lab := ms[v].PortLabel[port]
			if lab < 1 || lab > degBound {
				t.Fatalf("vertex %d port %d label %d out of range", v, port, lab)
			}
			// Locate v's port at u.
			uports := g.Neighbors(int(u))
			for q, w := range uports {
				if int(w) == v {
					if other := ms[u].PortLabel[q]; other != lab {
						t.Fatalf("edge (%d,%d): labels differ %d vs %d", v, u, lab, other)
					}
				}
			}
			if g.ID(int(u)) < g.ID(v) { // out-edge
				if seen[lab] {
					t.Fatalf("vertex %d has two out-edges labeled %d", v, lab)
				}
				seen[lab] = true
			}
		}
	}
	// Each label class, followed via parent ports, is acyclic (IDs decrease).
	for v := 0; v < g.N(); v++ {
		for l := 1; l <= degBound; l++ {
			if p := ms[v].ParentPortOf(l); p >= 0 {
				if g.ID(int(g.Neighbors(v)[p])) >= g.ID(v) {
					t.Fatalf("vertex %d forest %d parent has larger id", v, l)
				}
			}
		}
	}
}

func TestThreeColorAllForests(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm", graph.GNM(120, 480, 5)},
		{"tree", graph.RandomTree(200, 6)},
		{"cycle", graph.Cycle(33)},
		{"clique", graph.Complete(9)},
		{"star", graph.Star(25)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			degBound := g.MaxDegree()
			type out struct {
				m Membership
				c []int
			}
			res, err := dist.Run(g, func(v dist.Process) out {
				m := AssignLabels(v, nil, degBound)
				return out{m: m, c: ThreeColor(v, m)}
			})
			if err != nil {
				t.Fatal(err)
			}
			wantRounds := 1 + TotalRounds(g.N())
			if res.Stats.Rounds != wantRounds {
				t.Fatalf("rounds = %d, want %d", res.Stats.Rounds, wantRounds)
			}
			// Validate: for every edge with label ℓ, endpoint colors in
			// forest ℓ are in {1,2,3} and differ.
			for v := 0; v < g.N(); v++ {
				for port, u := range g.Neighbors(v) {
					if int(u) < v {
						continue
					}
					ov, ou := res.Outputs[v], res.Outputs[u]
					lab := ov.m.PortLabel[port]
					cv := ov.c[ov.m.ForestIndex(lab)]
					cu := ou.c[ou.m.ForestIndex(lab)]
					if cv < 1 || cv > 3 || cu < 1 || cu > 3 {
						t.Fatalf("edge (%d,%d) forest %d: colors %d,%d outside 1..3", v, u, lab, cv, cu)
					}
					if cv == cu {
						t.Fatalf("edge (%d,%d) forest %d: both endpoints colored %d", v, u, lab, cv)
					}
				}
			}
		})
	}
}

func TestThreeColorRespectsActiveMask(t *testing.T) {
	// Only even-indexed edges active: inactive ports must stay unlabeled.
	g := graph.Cycle(12)
	res, err := dist.Run(g, func(v dist.Process) Membership {
		active := make([]bool, v.Deg())
		for p := 0; p < v.Deg(); p++ {
			active[p] = (v.ID()+v.NeighborID(p))%2 == 1 // arbitrary agreed rule
		}
		return AssignLabels(v, active, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range res.Outputs {
		for port, u := range g.Neighbors(v) {
			activeEdge := (g.ID(v)+g.ID(int(u)))%2 == 1
			if !activeEdge && m.PortLabel[port] != NoForest {
				t.Fatalf("inactive port labeled: v=%d port=%d", v, port)
			}
			if activeEdge && m.PortLabel[port] == NoForest {
				t.Fatalf("active port unlabeled: v=%d port=%d", v, port)
			}
		}
	}
}

func TestShuffledIDsStillProper(t *testing.T) {
	g := graph.ShuffledIDs(graph.GNM(60, 240, 2), 77)
	degBound := g.MaxDegree()
	type out struct {
		m Membership
		c []int
	}
	res, err := dist.Run(g, func(v dist.Process) out {
		m := AssignLabels(v, nil, degBound)
		return out{m, ThreeColor(v, m)}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		for port, u := range g.Neighbors(v) {
			if int(u) < v {
				continue
			}
			ov, ou := res.Outputs[v], res.Outputs[u]
			lab := ov.m.PortLabel[port]
			if ov.c[ov.m.ForestIndex(lab)] == ou.c[ou.m.ForestIndex(lab)] {
				t.Fatalf("monochromatic forest edge (%d,%d)", v, u)
			}
		}
	}
}
