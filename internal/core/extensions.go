package core

import (
	"fmt"
	"math"

	"repro/internal/defective"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/linial"
)

// This file implements the §6 extensions in their vertex-coloring form:
// the randomized combination with the Kuhn–Wattenhofer defective-coloring
// routine (§6.1, Theorem 6.1) and the colors/time tradeoff (§6.2,
// Corollary 6.3). Both have the same shape: split the graph into
// low-degree vertex-disjoint classes, then run Legal-Color on every class
// in parallel with disjoint palettes.

// legalColorVertexMasked is legalColorVertex restricted to an initial
// subgraph mask (nil = whole graph).
func legalColorVertexMasked(v dist.Process, pl *Plan, s *schedule, mask []bool, start int) int {
	lv := legalLevels(v, pl, s, mask, start)
	return lv.offset + linialLeaf(v, pl, s, lv.same, start)
}

// vertexLevels is one vertex's state after the Defective-Color levels: its
// palette offset Σ (ψ_i−1)·ϑ⁽ⁱ⁺¹⁾ and, per port, whether the neighbor
// shares its leaf subgraph.
type vertexLevels struct {
	offset int
	same   []bool
}

// legalLevels runs the pl.Depth() Defective-Color levels of
// legalColorVertexMasked.
func legalLevels(v dist.Process, pl *Plan, s *schedule, mask []bool, start int) vertexLevels {
	deg := v.Deg()
	same := make([]bool, deg)
	for i := range same {
		same[i] = mask == nil || mask[i]
	}
	offset := 0
	r := pl.Depth()
	for level := 0; level < r; level++ {
		res := DefectiveColorStep(v, same, pl.P, s.phiSteps[level], start, s.k0, true)
		offset += (res.Psi - 1) * pl.Thetas[level+1]
		for port := 0; port < deg; port++ {
			if same[port] && res.NbrPsi[port] != res.Psi {
				same[port] = false
			}
		}
	}
	return vertexLevels{offset: offset, same: same}
}

// RandomizedColoring implements Theorem 6.1: every vertex picks a uniformly
// random class among K = ⌈Δ/ln n⌉, which is an O(log n)-defective
// O(Δ/log n)-coloring with high probability (Kuhn–Wattenhofer [20]); then
// every class — a bounded-NI subgraph of maximum degree O(log n) — is
// colored by Legal-Color in parallel. The result uses
// O(Δ·min{Δ, log n}^η) colors in O(poly log log n) rounds.
//
// kappa scales the high-probability defect bound ⌈kappa·ln n⌉; if an
// unlucky seed exceeds it the run returns an error (rerun with a new seed —
// the failure probability drops exponentially in kappa).
func RandomizedColoring(g *graph.Graph, c, b, p, kappa int, opts ...dist.Option) (*dist.Result[int], error) {
	n := g.N()
	delta := g.MaxDegree()
	if delta == 0 {
		return dist.Run(g, func(v dist.Process) int { return 1 }, opts...)
	}
	logN := math.Log(float64(n))
	classes := int(math.Ceil(float64(delta) / math.Max(logN, 1)))
	classDeg := int(math.Ceil(float64(kappa) * math.Max(logN, 1)))
	if classes <= 1 || classDeg >= delta {
		// Δ = O(log n): run the deterministic algorithm directly (§6.1).
		pl, err := AutoPlan(delta, c, b, p, false)
		if err != nil {
			return nil, err
		}
		return LegalColoring(g, pl, StartAux, opts...)
	}
	pl, err := AutoPlan(classDeg, c, b, p, false)
	if err != nil {
		return nil, err
	}
	sched, err := newSchedule(g.N(), g.MaxDegree(), pl, StartAux)
	if err != nil {
		return nil, err
	}
	return dist.Run(g, func(v dist.Process) int {
		class := 1 + v.Rand().Intn(classes)
		nbrClass := exchangeIntsByPort(v, nil, class)
		mask := make([]bool, v.Deg())
		sameCount := 0
		for port := range mask {
			mask[port] = nbrClass[port] == class
			if mask[port] {
				sameCount++
			}
		}
		if sameCount > classDeg {
			panic(fmt.Sprintf("core: randomized split defect %d exceeds bound %d (unlucky seed; rerun)",
				sameCount, classDeg))
		}
		start := v.ID()
		if sched.mode == StartAux {
			start = auxStart(v, sched)
		}
		legal := legalColorVertexMasked(v, pl, sched, mask, start)
		return (class-1)*pl.TotalPalette() + legal
	}, opts...)
}

// RandomizedPaletteBound returns the palette bound of RandomizedColoring.
func RandomizedPaletteBound(g *graph.Graph, c, b, p, kappa int) (int, error) {
	n := g.N()
	delta := g.MaxDegree()
	if delta == 0 {
		return 1, nil
	}
	logN := math.Log(float64(n))
	classes := int(math.Ceil(float64(delta) / math.Max(logN, 1)))
	classDeg := int(math.Ceil(float64(kappa) * math.Max(logN, 1)))
	if classes <= 1 || classDeg >= delta {
		pl, err := AutoPlan(delta, c, b, p, false)
		if err != nil {
			return 0, err
		}
		return pl.TotalPalette(), nil
	}
	pl, err := AutoPlan(classDeg, c, b, p, false)
	if err != nil {
		return 0, err
	}
	return classes * pl.TotalPalette(), nil
}

// TradeoffColoring implements Corollary 6.3: for a divisor parameter q
// (= q(Δ) = Δ/p in the paper's notation), it computes a ⌊Δ/p⌋-defective
// O(p²)-coloring with p = Δ/q via Lemma 2.1(3), splits into its color
// classes — each of degree ≤ q — and runs Legal-Color on all classes in
// parallel. Colors: O(p²·q^{1+η}) = O(Δ²/g(Δ)) for g = q^{1-η}; time:
// O(log* n) + the Legal-Color cost at degree q.
func TradeoffColoring(g *graph.Graph, c, b, pp, classDeg int, opts ...dist.Option) (*dist.Result[int], error) {
	n := g.N()
	delta := g.MaxDegree()
	if classDeg < 1 || classDeg > delta {
		return nil, fmt.Errorf("core: class degree %d outside [1,Δ=%d]", classDeg, delta)
	}
	splitSteps := defective.Schedule(n, delta, classDeg)
	pl, err := AutoPlan(classDeg, c, b, pp, false)
	if err != nil {
		return nil, err
	}
	sched, err := newSchedule(g.N(), g.MaxDegree(), pl, StartAux)
	if err != nil {
		return nil, err
	}
	return dist.Run(g, func(v dist.Process) int {
		class := linial.RunChain(splitSteps, v.ID(), linial.BroadcastExchange(v))
		nbrClass := exchangeIntsByPort(v, nil, class)
		mask := make([]bool, v.Deg())
		for port := range mask {
			mask[port] = nbrClass[port] == class
		}
		start := v.ID()
		if sched.mode == StartAux {
			start = auxStart(v, sched)
		}
		legal := legalColorVertexMasked(v, pl, sched, mask, start)
		return (class-1)*pl.TotalPalette() + legal
	}, opts...)
}

// TradeoffPaletteBound returns the palette bound of TradeoffColoring.
func TradeoffPaletteBound(g *graph.Graph, c, b, pp, classDeg int) (int, error) {
	splitSteps := defective.Schedule(g.N(), g.MaxDegree(), classDeg)
	pl, err := AutoPlan(classDeg, c, b, pp, false)
	if err != nil {
		return 0, err
	}
	return linial.FinalPalette(g.N(), splitSteps) * pl.TotalPalette(), nil
}
