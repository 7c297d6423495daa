package testutil

import "repro/internal/graph"

// CompiledFamilies is the generator zoo the compiled algorithm forms
// (dist.CompiledAlgo) are swept over against their per-vertex forms: every
// family the dist property tests use, at sizes where round structure (long
// ID chains, stars, dense cores, shuffled identifiers, isolated vertices)
// differs meaningfully.
func CompiledFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":       graph.Path(17),
		"cycle":      graph.Cycle(19),
		"complete":   graph.Complete(12),
		"bipartite":  graph.CompleteBipartite(5, 9),
		"star":       graph.Star(14),
		"gnm":        graph.GNM(80, 300, 3),
		"grid":       graph.Grid(8, 7),
		"hypercube":  graph.Hypercube(5),
		"tree":       graph.RandomTree(40, 5),
		"linegraph":  graph.GNM(30, 90, 2).LineGraph(),
		"shuffled":   graph.ShuffledIDs(graph.GNM(60, 200, 1), 4),
		"isolated":   graph.NewBuilder(7).Build(),
		"singleton":  graph.NewBuilder(1).Build(),
		"mixed-deg0": mixedWithIsolated(),
	}
}

// mixedWithIsolated is a graph with both a connected core and isolated
// vertices, exercising the deg-0 paths of the compiled forms.
func mixedWithIsolated() *graph.Graph {
	b := graph.NewBuilder(12)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}, {5, 6}} {
		_ = b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
