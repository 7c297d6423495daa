package edgecolor

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/defective"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/wire"
)

// This file implements the §6 extensions in their edge-coloring form.

// RandomizedEdgeColoring implements Corollary 6.2: every edge is thrown into
// one of K = ⌈Δ_L/ln n⌉ random classes (the smaller-identifier endpoint
// draws and tells the other endpoint — one O(1)-round step, as §6.1 notes),
// which is an O(log n)-defective edge coloring with high probability; then
// the deterministic edge Legal-Color runs on all classes in parallel with
// disjoint palettes. Result: O(Δ·min{Δ, log n}^η)-edge-coloring in
// O(log log n)-scale time.
//
// kappa scales the whp class-degree bound ⌈kappa·ln n⌉ (per endpoint); an
// unlucky seed exceeding it yields an error — rerun with a different seed.
func RandomizedEdgeColoring(g *graph.Graph, b, p, kappa int, mode MsgMode, opts ...dist.Option) (*dist.Result[[]int], error) {
	n := g.N()
	delta := g.MaxDegree()
	if delta == 0 {
		return dist.Run(g, func(v dist.Process) []int { return make([]int, v.Deg()) }, opts...)
	}
	logN := math.Max(math.Log(float64(n)), 1)
	deltaL := 2*delta - 2 // Δ(L(G)) bound
	classes := int(math.Ceil(float64(deltaL) / logN))
	classDeg := int(math.Ceil(float64(kappa) * logN))
	if classes <= 1 || classDeg >= delta {
		// Δ = O(log n): the deterministic algorithm is already fast.
		pl, err := core.AutoPlan(delta, 2, b, p, true)
		if err != nil {
			return nil, err
		}
		return LegalEdgeColoring(g, pl, mode, opts...)
	}
	pl, err := core.AutoPlan(classDeg, 2, b, p, true)
	if err != nil {
		return nil, err
	}
	return dist.Run(g, func(v dist.Process) []int {
		initClass := drawEdgeClasses(v, classes)
		// Enforce the whp bound locally: per vertex, no class may exceed
		// the plan's degree bound.
		byClass := make(map[int]int, classes)
		for _, c := range initClass {
			byClass[c]++
			if byClass[c] > classDeg {
				panic(fmt.Sprintf("edgecolor: randomized class degree %d exceeds bound %d (unlucky seed; rerun)",
					byClass[c], classDeg))
			}
		}
		return legalEdgeVertex(v, pl, mode, initClass)
	}, opts...)
}

// RandomizedPaletteBound returns the palette bound of RandomizedEdgeColoring.
func RandomizedPaletteBound(g *graph.Graph, b, p, kappa int) (int, error) {
	n := g.N()
	delta := g.MaxDegree()
	if delta == 0 {
		return 1, nil
	}
	logN := math.Max(math.Log(float64(n)), 1)
	deltaL := 2*delta - 2
	classes := int(math.Ceil(float64(deltaL) / logN))
	classDeg := int(math.Ceil(float64(kappa) * logN))
	if classes <= 1 || classDeg >= delta {
		pl, err := core.AutoPlan(delta, 2, b, p, true)
		if err != nil {
			return 0, err
		}
		return pl.TotalPalette(), nil
	}
	pl, err := core.AutoPlan(classDeg, 2, b, p, true)
	if err != nil {
		return 0, err
	}
	return classes * pl.TotalPalette(), nil
}

// drawEdgeClasses assigns every incident edge a random class in 0..classes-1
// agreed by both endpoints: the smaller-identifier endpoint draws from its
// per-vertex PRNG and sends the class across the edge (one round).
func drawEdgeClasses(v dist.Process, classes int) []int {
	deg := v.Deg()
	out := make([][]byte, deg)
	initClass := make([]int, deg)
	for port := 0; port < deg; port++ {
		if v.ID() < v.NeighborID(port) {
			initClass[port] = v.Rand().Intn(classes)
			out[port] = wire.EncodeInts(initClass[port])
		}
	}
	in := v.Round(out)
	for port := 0; port < deg; port++ {
		if v.ID() > v.NeighborID(port) {
			val, err := wire.DecodeInt(in[port])
			if err != nil {
				panic("edgecolor: bad class message: " + err.Error())
			}
			initClass[port] = val
		}
	}
	return initClass
}

// TradeoffEdgeColoring implements the edge form of Corollary 6.3: the edges
// are first split by Kuhn's O(1)-round routine (Cor 5.4) with p′ chosen so
// that every class has degree ≤ classDeg at each vertex, then the
// deterministic edge Legal-Color colors all classes in parallel. Larger
// classDeg means fewer classes (fewer colors) but more recursion work:
// sweeping classDeg traces the O(Δ²/g(Δ)) colors vs O(log g(Δ)) time curve.
func TradeoffEdgeColoring(g *graph.Graph, b, p, classDeg int, mode MsgMode, opts ...dist.Option) (*dist.Result[[]int], error) {
	delta := g.MaxDegree()
	if classDeg < 4 || classDeg > delta {
		return nil, fmt.Errorf("edgecolor: classDeg=%d outside [4,Δ=%d]", classDeg, delta)
	}
	// Cor 5.4 with p′ = ⌈4Δ/classDeg⌉ keeps per-vertex class degrees at most
	// 2⌈Δ/p′⌉ ≤ classDeg.
	pPrime := ceilDiv(4*delta, classDeg)
	if pPrime < 1 {
		pPrime = 1
	}
	pl, err := core.AutoPlan(classDeg, 2, b, p, true)
	if err != nil {
		return nil, err
	}
	return dist.Run(g, func(v dist.Process) []int {
		split := defective.EdgeColoringStep(v, pPrime)
		initClass := make([]int, v.Deg())
		byClass := make(map[int]int, 8)
		for port, c := range split {
			initClass[port] = c - 1
			byClass[c]++
			if byClass[c] > classDeg {
				panic(fmt.Sprintf("edgecolor: tradeoff class degree %d exceeds bound %d (Cor 5.4 violated)",
					byClass[c], classDeg))
			}
		}
		return legalEdgeVertex(v, pl, mode, initClass)
	}, opts...)
}

// TradeoffPaletteBound returns the palette bound of TradeoffEdgeColoring:
// p′² classes times the per-class Legal-Color palette.
func TradeoffPaletteBound(g *graph.Graph, b, p, classDeg int) (int, error) {
	delta := g.MaxDegree()
	pPrime := ceilDiv(4*delta, classDeg)
	pl, err := core.AutoPlan(classDeg, 2, b, p, true)
	if err != nil {
		return 0, err
	}
	return pPrime * pPrime * pl.TotalPalette(), nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
