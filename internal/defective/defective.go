// Package defective implements the defective-coloring subroutines of Kuhn
// [19] that the paper builds on:
//
//   - Lemma 2.1(3): a ⌊Δ/p⌋-defective O(p²)-vertex-coloring in O(log* n)
//     rounds (plus an O(log log Δ) tail; see the Schedule doc comment),
//   - Theorem 4.7: a d-defective O(((Δ-d′)/(d+1-d′))²)-coloring computed from
//     a given d′-defective M-coloring in O(log* M) rounds,
//   - Corollary 5.4: a 4⌈Δ/p′⌉-defective p′²-edge-coloring in O(1) rounds.
//
// The vertex routines reuse the polynomial cover-free machinery of package
// linial: a defective step is a Linial step whose field size q is chosen so
// that the best evaluation point collides with at most Budget differently-
// colored neighbors; same-colored neighbors are skipped and accounted as the
// carried defect (Theorem 4.7's d′ term), so per-step budgets add up to the
// total defect bound.
package defective

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/wire"
)

// Schedule returns the reduction schedule that takes a k0-coloring of a
// graph with maximum degree ≤ degBound to a defective coloring whose defect
// *increase* is at most defectBudget. It consists of the legal Linial chain
// down to the O(degBound²) fixed point followed by defective steps whose
// budgets halve geometrically.
//
// The paper's source [19] achieves the same guarantee in log* n + O(1)
// rounds using optimal d-cover-free families whose known constructions are
// non-explicit (probabilistic existence + unbounded local search). The
// explicit polynomial families used here add an O(log log degBound) tail of
// extra rounds — substitution N5 recorded in DESIGN.md; every palette and
// defect bound is preserved exactly as computed by Guarantee.
func Schedule(k0, degBound, defectBudget int) []linial.Step {
	steps := linial.LegalSchedule(k0, degBound)
	k := linial.FinalPalette(k0, steps)
	b := defectBudget
	for b >= 1 {
		s, ok := defectiveStep(k, degBound, (b+1)/2)
		if !ok || s.NewPalette() >= k {
			break
		}
		steps = append(steps, s)
		k = s.NewPalette()
		b -= s.Budget
	}
	return steps
}

// defectiveStep finds the single step from palette k that introduces at most
// delta new collisions per vertex while minimizing the new palette q²: for
// each candidate polynomial degree t, the budget constraint forces
// q > t·degBound/(delta+1) and representability requires q^(t+1) >= k; the
// smallest feasible field wins.
func defectiveStep(k, degBound, delta int) (linial.Step, bool) {
	if delta < 1 {
		return linial.Step{}, false
	}
	var best linial.Step
	found := false
	for t := 1; t <= 64; t++ {
		q := linial.NextPrime(maxInt(t*degBound/(delta+1)+1, t+2))
		if !powAtLeast(q, t+1, k) {
			continue
		}
		if !found || q < best.Q {
			best = linial.Step{K: k, Q: q, T: t, Budget: t * degBound / q}
			found = true
		}
	}
	return best, found
}

// powAtLeast reports whether q^e >= k without overflowing.
func powAtLeast(q, e, k int) bool {
	const maxInt = int(^uint(0) >> 1)
	acc := 1
	for i := 0; i < e; i++ {
		if acc > maxInt/q {
			return true
		}
		acc *= q
		if acc >= k {
			return true
		}
	}
	return acc >= k
}

// Guarantee reports the provable outcome of Schedule(k0, degBound, budget):
// the final palette size, the worst-case defect increase, and the number of
// communication rounds (= schedule length).
func Guarantee(k0, degBound, defectBudget int) (palette, defect, rounds int) {
	steps := Schedule(k0, degBound, defectBudget)
	palette = linial.FinalPalette(k0, steps)
	for _, s := range steps {
		defect += s.Budget
	}
	return palette, defect, len(steps)
}

// VertexColoring computes Lemma 2.1(3) distributedly: a ⌊Δ/p⌋-defective
// O(p²)-vertex-coloring of g, for 1 <= p <= Δ. Vertices start from their
// identifiers.
func VertexColoring(g *graph.Graph, p int, opts ...dist.Option) (*dist.Result[int], error) {
	delta := g.MaxDegree()
	if p < 1 || (delta > 0 && p > delta) {
		return nil, fmt.Errorf("defective: p=%d outside [1,Δ=%d]", p, delta)
	}
	steps := Schedule(g.N(), delta, delta/p)
	return dist.Run(g, func(v dist.Process) int {
		return linial.RunChain(steps, v.ID(), linial.BroadcastExchange(v))
	}, opts...)
}

// FromColoring implements Theorem 4.7 as pure per-vertex logic: given that
// the caller holds a d′-defective M-coloring (colors in 1..M) and wants
// total defect at most d (d >= d′), it returns the schedule whose defect
// increase is d-d′; running it via linial.RunChain yields the new coloring.
// The round count is O(log* M) plus the explicit-construction tail.
func FromColoring(m, degBound, dPrime, d int) ([]linial.Step, error) {
	if dPrime > d {
		return nil, fmt.Errorf("defective: carried defect d'=%d exceeds target d=%d", dPrime, d)
	}
	return Schedule(m, degBound, d-dPrime), nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ----- Corollary 5.4: Kuhn's O(1)-round defective edge coloring -----

// EdgeColoringStep runs Kuhn's one-exchange defective edge coloring from
// inside a vertex process: every vertex labels its incident edges with
// labels in {1..pPrime} such that no label repeats more than ⌈Δ/p′⌉ times,
// endpoints swap labels, and the edge color is the pair of labels ordered by
// endpoint identifier. It uses exactly one communication round and returns
// the per-port colors, drawn from a palette of size p′².
//
// Guarantee (Cor 5.4): the result is a 4⌈Δ/p′⌉-defective p′²-edge-coloring.
func EdgeColoringStep(v dist.Process, pPrime int) []int {
	delta := v.MaxDegree()
	chunk := (delta + pPrime - 1) / pPrime // ⌈Δ/p′⌉ edges per label
	if chunk == 0 {
		chunk = 1
	}
	deg := v.Deg()
	out := make([][]byte, deg)
	myLabel := make([]int, deg)
	for port := 0; port < deg; port++ {
		myLabel[port] = port/chunk + 1
		out[port] = wire.EncodeInts(myLabel[port])
	}
	in := v.Round(out)
	colors := make([]int, deg)
	for port := 0; port < deg; port++ {
		theirLabel, err := wire.DecodeInt(in[port])
		if err != nil {
			panic("defective: bad label message: " + err.Error())
		}
		a, b := myLabel[port], theirLabel
		if v.NeighborID(port) < v.ID() {
			a, b = b, a
		}
		colors[port] = (a-1)*pPrime + b
	}
	return colors
}

// EdgeColoring runs EdgeColoringStep on the whole graph and returns the
// per-vertex port colorings; use graph.MergePortColors for per-edge colors.
func EdgeColoring(g *graph.Graph, pPrime int, opts ...dist.Option) (*dist.Result[[]int], error) {
	if pPrime < 1 {
		return nil, fmt.Errorf("defective: p'=%d must be positive", pPrime)
	}
	return dist.Run(g, func(v dist.Process) []int {
		return EdgeColoringStep(v, pPrime)
	}, opts...)
}
