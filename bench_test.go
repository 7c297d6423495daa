// Benchmarks regenerating the paper's tables and figures, one per artifact
// (see the experiment index in DESIGN.md). Each benchmark runs the full
// distributed computation per iteration and reports the LOCAL-model costs
// (rounds, colors) as custom metrics next to wall-clock time:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"testing"

	"repro/internal/algreg"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/defective"
	"repro/internal/dist"
	"repro/internal/edgecolor"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/panconesi"
	"repro/internal/reduce"
)

// benchGraph is the standard Table-1/2 workload: a random graph with target
// degree 16 on 256 vertices.
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return graph.TargetDegreeGNM(256, 16, 1)
}

func reportEdgeRun(b *testing.B, g *graph.Graph, res *dist.Result[[]int]) {
	b.Helper()
	colors, err := graph.MergePortColors(g, res.Outputs)
	if err != nil {
		b.Fatal(err)
	}
	if err := graph.CheckEdgeColoring(g, colors); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Stats.Rounds), "rounds")
	b.ReportMetric(float64(graph.CountColors(colors)), "colors")
	b.ReportMetric(float64(res.Stats.MaxMessageBytes), "maxMsgB")
}

// BenchmarkTable1_PanconesiRizzi is the Table 1 baseline row: (2Δ−1) colors
// in O(Δ)+log* n rounds [24].
func BenchmarkTable1_PanconesiRizzi(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		res, err := panconesi.EdgeColoring(g)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportEdgeRun(b, g, res)
		}
	}
}

// BenchmarkTable1_BarenboimElkin is the Table 1 "new" row: the §5 edge
// variant of Procedure Legal-Color (wide messages).
func BenchmarkTable1_BarenboimElkin(b *testing.B) {
	g := benchGraph(b)
	pl, err := core.AutoPlan(g.MaxDegree(), 2, 2, 6, true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := edgecolor.LegalEdgeColoring(g, pl, edgecolor.Wide)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportEdgeRun(b, g, res)
		}
	}
}

// BenchmarkTable1_HPartitionLineGraph is the Table 1 large-Δ competitor
// ([3]/[5]-style forest decomposition, inherent Θ(log n) rounds) run on the
// line graph under the Lemma 5.2 accounting.
func BenchmarkTable1_HPartitionLineGraph(b *testing.B) {
	g := benchGraph(b)
	lg := g.LineGraph()
	theta := baseline.DefaultTheta(lg)
	for i := 0; i < b.N; i++ {
		res, err := baseline.HPartitionColoring(lg, theta)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if err := graph.CheckEdgeColoring(g, res.Outputs); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(2*res.Stats.Rounds+1), "simRounds")
			b.ReportMetric(float64(graph.CountColors(res.Outputs)), "colors")
		}
	}
}

// BenchmarkTable2_RandomizedTrial is the Table 2 randomized competitor
// (stand-in for [29],[18]): rounds grow with log n.
func BenchmarkTable2_RandomizedTrial(b *testing.B) {
	g := graph.RandomRegular(1024, 8, 2)
	for i := 0; i < b.N; i++ {
		res, err := baseline.RandomizedTrialEdgeColoring(g, dist.WithSeed(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportEdgeRun(b, g, res)
		}
	}
}

// BenchmarkTable2_Deterministic is the Table 2 deterministic row at small Δ.
func BenchmarkTable2_Deterministic(b *testing.B) {
	g := graph.RandomRegular(1024, 8, 2)
	pl, err := core.AutoPlan(g.MaxDegree(), 2, 2, 6, true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := edgecolor.LegalEdgeColoring(g, pl, edgecolor.Wide)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportEdgeRun(b, g, res)
		}
	}
}

// BenchmarkFig1 colors the Figure-1 graph (I(G)=2, unbounded growth) with
// the vertex Legal-Color.
func BenchmarkFig1(b *testing.B) {
	g := graph.CliquePlusPendants(32)
	pl, err := core.AutoPlan(g.MaxDegree(), 2, 2, 6, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := core.LegalColoring(g, pl, core.StartAux)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if err := graph.CheckVertexColoring(g, res.Outputs); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(graph.CountColors(res.Outputs)), "colors")
		}
	}
}

// BenchmarkFig2 is the Lemma 3.4 orientation-coloring process.
func BenchmarkFig2(b *testing.B) {
	g := graph.GNM(256, 2048, 3)
	o := graph.OrientByIDs(g)
	d := o.MaxOutDegree()
	for i := 0; i < b.N; i++ {
		res, err := dist.Run(g, func(v dist.Process) int {
			isOut := make([]bool, v.Deg())
			for p := range isOut {
				isOut[p] = v.NeighborID(p) < v.ID()
			}
			return reduce.ColorByOrientation(v, isOut, d)
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(graph.MaxColor(res.Outputs)), "colors")
		}
	}
}

// BenchmarkFig3 runs the recursion whose tree Figure 3 depicts (two levels
// of Defective-Color above a Panconesi–Rizzi leaf).
func BenchmarkFig3(b *testing.B) {
	g := graph.TargetDegreeGNM(256, 48, 4)
	pl, err := core.AutoPlan(g.MaxDegree(), 2, 1, 12, true)
	if err != nil {
		b.Fatal(err)
	}
	if pl.Depth() < 1 {
		b.Fatal("plan has no recursion levels; Figure 3 needs depth >= 1")
	}
	for i := 0; i < b.N; i++ {
		res, err := edgecolor.LegalEdgeColoring(g, pl, edgecolor.Wide)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportEdgeRun(b, g, res)
			b.ReportMetric(float64(pl.Depth()), "depth")
		}
	}
}

// BenchmarkDefectProduct_Alg1 measures the paper's core §3 claim: Procedure
// Defective-Color's defect × colors stays linear in Δ on bounded-NI graphs.
func BenchmarkDefectProduct_Alg1(b *testing.B) {
	g := graph.RandomRegular(256, 12, 5).LineGraph()
	for i := 0; i < b.N; i++ {
		res, err := core.DefectiveColoring(g, 2, 2, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			d := graph.VertexDefect(g, res.Outputs)
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(d*4), "defectXcolors")
			b.ReportMetric(float64(g.MaxDegree()), "delta")
		}
	}
}

// BenchmarkDefectProduct_Kuhn is the prior-art comparison [19]: the same
// defect costs p² colors on general graphs (product Δ·p).
func BenchmarkDefectProduct_Kuhn(b *testing.B) {
	g := graph.RandomRegular(256, 12, 5).LineGraph()
	for i := 0; i < b.N; i++ {
		res, err := defective.VertexColoring(g, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			d := graph.VertexDefect(g, res.Outputs)
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(d*graph.CountColors(res.Outputs)), "defectXcolors")
		}
	}
}

// BenchmarkVertexScaling is the Theorem 4.5/4.6 shape: Legal-Color on a
// bounded-NI vertex input.
func BenchmarkVertexScaling(b *testing.B) {
	g := graph.PowerOfCycle(512, 16)
	pl, err := core.AutoPlan(g.MaxDegree(), 2, 2, 6, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := core.LegalColoring(g, pl, core.StartAux)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if err := graph.CheckVertexColoring(g, res.Outputs); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(graph.CountColors(res.Outputs)), "colors")
		}
	}
}

// BenchmarkMessageSize_WideVsShort reports the §5 message regimes.
func BenchmarkMessageSize_Wide(b *testing.B) {
	benchMessageSize(b, edgecolor.Wide)
}

func BenchmarkMessageSize_Short(b *testing.B) {
	benchMessageSize(b, edgecolor.Short)
}

func benchMessageSize(b *testing.B, mode edgecolor.MsgMode) {
	b.Helper()
	g := graph.TargetDegreeGNM(192, 24, 6)
	pl, err := core.AutoPlan(g.MaxDegree(), 2, 2, 6, true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := edgecolor.LegalEdgeColoring(g, pl, mode)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportEdgeRun(b, g, res)
		}
	}
}

// BenchmarkKuhnEdgeDefective is Corollary 5.4: one round, defect ≤ 4⌈Δ/p'⌉.
func BenchmarkKuhnEdgeDefective(b *testing.B) {
	g := graph.TargetDegreeGNM(512, 32, 7)
	for i := 0; i < b.N; i++ {
		res, err := defective.EdgeColoring(g, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			colors, err := graph.MergePortColors(g, res.Outputs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(graph.EdgeDefect(g, colors)), "defect")
		}
	}
}

// BenchmarkRandomized is Corollary 6.2.
func BenchmarkRandomized(b *testing.B) {
	g := graph.TargetDegreeGNM(512, 28, 8)
	for i := 0; i < b.N; i++ {
		res, err := edgecolor.RandomizedEdgeColoring(g, 2, 6, 8, edgecolor.Wide, dist.WithSeed(11))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportEdgeRun(b, g, res)
		}
	}
}

// BenchmarkTradeoff is Corollary 6.3 at one point of the curve.
func BenchmarkTradeoff(b *testing.B) {
	g := graph.TargetDegreeGNM(256, 32, 9)
	for i := 0; i < b.N; i++ {
		res, err := edgecolor.TradeoffEdgeColoring(g, 2, 6, g.MaxDegree()/2, edgecolor.Wide)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportEdgeRun(b, g, res)
		}
	}
}

// BenchmarkLineGraphSim is Lemma 5.2: the vertex algorithm on L(G) with
// simulation accounting.
func BenchmarkLineGraphSim(b *testing.B) {
	g := graph.TargetDegreeGNM(128, 16, 10)
	lg := g.LineGraph()
	pl, err := core.AutoPlan(lg.MaxDegree(), 2, 2, 6, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sim, err := edgecolor.ViaLineGraphSimulation(g, pl, core.StartAux)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if err := graph.CheckEdgeColoring(g, sim.EdgeColors); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sim.SimulatedRounds), "simRounds")
			b.ReportMetric(float64(sim.SimulatedMaxMessageBytes), "simMaxMsgB")
		}
	}
}

// BenchmarkNeighborhoodIndependence is the E8 structural check (exact I(G)
// of a line graph).
func BenchmarkNeighborhoodIndependence(b *testing.B) {
	lg := graph.GNM(40, 180, 11).LineGraph()
	for i := 0; i < b.N; i++ {
		if ni := graph.NeighborhoodIndependence(lg); ni > 2 {
			b.Fatalf("I(L(G)) = %d > 2", ni)
		}
	}
}

// missShapes are colord's cache-miss workload shapes (the benchmark's miss
// templates): the service's compute path, one row per shape.
var missShapes = []struct {
	kind, alg, quality string
	spec               exp.GraphSpec
}{
	{"edge", "be", "", exp.GraphSpec{Family: "gnm", N: 160, M: 640, Seed: 1}},
	{"edge", "be", "", exp.GraphSpec{Family: "linegraph", N: 32, M: 120, Seed: 2}},
	{"edge", "pr", "", exp.GraphSpec{Family: "regular", N: 128, Deg: 8, Seed: 3}},
	{"edge", "greedy", "", exp.GraphSpec{Family: "gnm", N: 128, M: 384, Seed: 4}},
	{"edge", "", algreg.QualityFewColors, exp.GraphSpec{Family: "gnm", N: 64, M: 192, Seed: 1}},
	{"vertex", "be", "", exp.GraphSpec{Family: "powercycle", N: 120, Deg: 4}},
	{"vertex", "be", "", exp.GraphSpec{Family: "linegraph", N: 24, M: 70, Seed: 5}},
	{"vertex", "greedy", "", exp.GraphSpec{Family: "geometric", N: 160, Seed: 6}},
}

// BenchmarkMissShapes runs each miss shape the way a colord worker does:
// resolved through algreg with the service's parameter defaults, on a warm
// dist.Pool under the Compiled engine. Rows are named kind-alg/family;
// rounds and msgBytes are exact, so benchcmp catches any semantic drift.
func BenchmarkMissShapes(b *testing.B) {
	for _, sh := range missShapes {
		a, err := algreg.Resolve(sh.kind, sh.alg, sh.quality)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sh.kind+"-"+a.Name+"/"+sh.spec.Family, func(b *testing.B) {
			g, err := sh.spec.Build()
			if err != nil {
				b.Fatal(err)
			}
			// The service's shared defaults, then the algorithm's own.
			p := algreg.Params{B: 2, C: 2, Mode: "wide", Seed: 1}
			if sh.kind == "edge" {
				p.C = 0
			}
			if err := a.Canon(&p); err != nil {
				b.Fatal(err)
			}
			var stats dist.Stats
			if sh.kind == "edge" {
				algo, _, err := a.BuildEdge(g, p)
				if err != nil {
					b.Fatal(err)
				}
				stats = runPooled(b, g, algo, p.Seed, func(out [][]int) error {
					colors, err := graph.MergePortColors(g, out)
					if err != nil {
						return err
					}
					return graph.CheckEdgeColoring(g, colors)
				})
			} else {
				algo, _, err := a.BuildVertex(g, p)
				if err != nil {
					b.Fatal(err)
				}
				stats = runPooled(b, g, algo, p.Seed, func(out []int) error {
					return graph.CheckVertexColoring(g, out)
				})
			}
			b.ReportMetric(float64(stats.Rounds), "rounds")
			b.ReportMetric(float64(stats.Bytes), "msgBytes")
		})
	}
}

// runPooled is BenchmarkMissShapes' timed loop: b.N compiled runs on one warm
// pool, the first checked for legality; it returns that run's Stats.
func runPooled[T any](b *testing.B, g *graph.Graph, algo dist.Algo[T], seed int64, check func([]T) error) dist.Stats {
	pool := dist.NewPool[T](g, 1)
	defer pool.Close()
	var stats dist.Stats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := pool.RunAlgo(algo, dist.WithSeed(seed), dist.WithEngine(dist.Compiled))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if err := check(res.Outputs); err != nil {
				b.Fatal(err)
			}
			stats = res.Stats
		}
	}
	return stats
}
