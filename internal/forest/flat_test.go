package forest

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// TestFlatMatchesPerVertex: Flat's labels and forest colors equal what
// AssignLabelsClasses and ThreeColor compute at every vertex, port by
// port, and its replayed Stats equal the Lockstep run's, for one class and
// for two classes (by identifier parity of the edge's endpoints).
func TestFlatMatchesPerVertex(t *testing.T) {
	type portView struct{ Labels, Colors []int }
	classOfPort := func(classes, id, nid int) int { return (id+nid)%classes + 1 }
	for name, g := range testutil.CompiledFamilies() {
		for _, classes := range []int{1, 2} {
			degBound := g.MaxDegree()
			want, err := dist.Run(g, func(v dist.Process) portView {
				classOf := make([]int, v.Deg())
				for p := range classOf {
					classOf[p] = classOfPort(classes, v.ID(), v.NeighborID(p))
				}
				m := AssignLabelsClasses(v, classOf, degBound)
				colors := ThreeColor(v, m)
				pv := portView{Labels: m.PortLabel, Colors: make([]int, v.Deg())}
				for p, i := range m.PortForest {
					if i >= 0 {
						pv.Colors[p] = colors[i]
					}
				}
				return pv
			}, dist.WithEngine(dist.Lockstep))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			off := g.Offsets()
			classOf := make([]int, off[g.N()])
			for v := 0; v < g.N(); v++ {
				for p, u := range g.Neighbors(v) {
					classOf[int(off[v])+p] = classOfPort(classes, g.ID(v), g.ID(int(u)))
				}
			}
			f, ok := NewFlat(g, classOf, degBound)
			if !ok {
				t.Fatalf("%s: NewFlat refused a valid class table", name)
			}
			tally := dist.CompiledEnv{}.NewTally()
			if err := f.LabelRound(tally); err != nil {
				t.Fatal(err)
			}
			if err := f.ThreeColor(tally); err != nil {
				t.Fatal(err)
			}
			for v := 0; v < g.N(); v++ {
				got := portView{Labels: make([]int, g.Deg(v)), Colors: make([]int, g.Deg(v))}
				for p := range g.Deg(v) {
					s := int(off[v]) + p
					got.Labels[p] = f.Label[s]
					if i := f.Node[s]; i >= 0 {
						got.Colors[p] = f.Color[i]
					}
				}
				if !reflect.DeepEqual(got, want.Outputs[v]) {
					t.Fatalf("%s, %d classes, vertex %d: flat %+v, per-vertex %+v", name, classes, v, got, want.Outputs[v])
				}
			}
			if tally.Stats != want.Stats {
				t.Fatalf("%s, %d classes: stats %v, want %v", name, classes, tally.Stats, want.Stats)
			}
		}
	}
}

// TestNewFlatDeclines: NewFlat refuses, before running anything, the class
// tables on which the per-vertex labeling panics or waits on a label its
// neighbor never sends.
func TestNewFlatDeclines(t *testing.T) {
	g := graph.Star(6) // center id 1: every leaf's one out-edge points at it
	off := g.Offsets()
	ones := func() []int {
		classOf := make([]int, off[g.N()])
		for s := range classOf {
			classOf[s] = 1
		}
		return classOf
	}
	if _, ok := NewFlat(g, ones(), 1); !ok {
		t.Fatal("refused a valid table")
	}
	if _, ok := NewFlat(g, ones(), 0); ok {
		t.Fatal("accepted an out-degree above degBound")
	}
	asym := ones()
	asym[off[1]] = 2 // leaf 1's side of its edge disagrees with the center's
	if _, ok := NewFlat(g, asym, 1); ok {
		t.Fatal("accepted an edge whose endpoints disagree on its class")
	}
}
