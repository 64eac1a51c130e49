package core

// This file implements the part-extraction machinery of Appendix A.1
// (Lemmas 28–30) used by the shrinking procedure of Section 5 via
// Corollaries 16–18, plus the Claim-4 chunk extraction of Appendix A.2
// used by the bin-packing procedures.

// iterativePartition is procedure IterativePartition of Lemma 28: it
// partitions U into parts X₁,…,X_ℓ of Ψ-weight between psiStar and
// 3·psiStar (the last part may be smaller when U runs out), each cut off by
// the splitting oracle at cost ≤ π^{1/p}(U).
func (c *ctx) iterativePartition(U []int32, psi []float64, psiStar float64) [][]int32 {
	var parts [][]int32
	X := append([]int32(nil), U...)
	guard := 0
	limit := len(U) + 4
	for sumOver(psi, X) > 3*psiStar && len(X) > 1 && guard < limit {
		guard++
		Xi := c.split(X, psi, psiStar+maxOver(psi, X)/2)
		if len(Xi) == 0 || len(Xi) == len(X) {
			break
		}
		parts = append(parts, Xi)
		X = removeInPlace(X, Xi)
	}
	if len(X) > 0 {
		parts = append(parts, X)
	}
	return parts
}

// impact scores a candidate part X against the measures and the boundary
// cost of its source set U, normalized so that a uniformly random part of
// relative weight ρ scores about ρ per component.
func (c *ctx) impact(X []int32, measures [][]float64, mTotals []float64, bTotal float64) float64 {
	s := 0.0
	for j, m := range measures {
		if mTotals[j] > 0 {
			s += sumOver(m, X) / mTotals[j]
		}
	}
	if bTotal > 0 {
		s += c.boundaryOf(X) / bTotal
	}
	return s
}

// extractLowImpact realizes Corollaries 16/17 (via Lemma 29): a subset X of
// U with Ψ-weight about target that carries only a small fraction of every
// measure in measures and of ∂U. Implemented by partitioning U into parts
// of weight ≈ target and returning the minimum-impact part (the averaging /
// pigeonhole argument of Lemma 29).
func (c *ctx) extractLowImpact(U []int32, psi []float64, target float64, measures [][]float64) []int32 {
	if len(U) == 0 {
		return nil
	}
	parts := c.iterativePartition(U, psi, target)
	if len(parts) == 1 {
		return parts[0]
	}
	mTotals := make([]float64, len(measures))
	for j, m := range measures {
		mTotals[j] = sumOver(m, U)
	}
	bTotal := c.boundaryOf(U)
	// Skip runt last parts far below the target weight when possible (the
	// cheap predicate runs first so skipped parts are never scored), then
	// score the candidates on the pool — impact is a pure function of each
	// part, and the boundary scan is the expensive piece — and take the
	// argmin in part order, the same winner as the sequential scan.
	candidates := []int{0}
	for i := 1; i < len(parts); i++ {
		if sumOver(psi, parts[i]) < target/2 && len(parts) > 2 {
			continue
		}
		candidates = append(candidates, i)
	}
	scores := make([]float64, len(candidates))
	c.parRange(len(candidates), func(j int) {
		scores[j] = c.impact(parts[candidates[j]], measures, mTotals, bTotal)
	})
	best, bestScore := candidates[0], scores[0]
	for j := 1; j < len(candidates); j++ {
		if scores[j] < bestScore {
			best, bestScore = candidates[j], scores[j]
		}
	}
	return parts[best]
}

// extractHighImpact realizes Corollary 18 (via Lemma 30): a subset X of U
// with Ψ-weight in [target, target + ‖Ψ|U‖∞] that carries at least a
// proportional share of *every* measure and of ∂U. Implemented by
// partitioning U into parts of weight ≈ target/3, taking the argmax part
// for each measure and for the boundary, and topping the union up to the
// target weight with a splitting set.
func (c *ctx) extractHighImpact(U []int32, psi []float64, target float64, measures [][]float64) []int32 {
	if len(U) == 0 {
		return nil
	}
	if sumOver(psi, U) <= target {
		return append([]int32(nil), U...)
	}
	denom := float64(len(measures) + 1)
	parts := c.iterativePartition(U, psi, target/denom)
	if len(parts) == 1 {
		return parts[0]
	}
	chosen := map[int]bool{}
	pick := func(score func(X []int32) float64) {
		best, bestScore := -1, -1.0
		for i, X := range parts {
			if s := score(X); s > bestScore {
				best, bestScore = i, s
			}
		}
		if best >= 0 {
			chosen[best] = true
		}
	}
	for _, m := range measures {
		m := m
		pick(func(X []int32) float64 { return sumOver(m, X) })
	}
	// Boundary costs are the expensive scores; precompute them on the pool.
	bparts := make([]float64, len(parts))
	c.parRange(len(parts), func(i int) { bparts[i] = c.boundaryOf(parts[i]) })
	bestB, bestScore := -1, -1.0
	for i := range parts {
		if bparts[i] > bestScore {
			bestB, bestScore = i, bparts[i]
		}
	}
	if bestB >= 0 {
		chosen[bestB] = true
	}

	var xbar []int32
	for i := range parts {
		if chosen[i] {
			xbar = append(xbar, parts[i]...)
		}
	}
	got := sumOver(psi, xbar)
	if got >= target {
		return xbar
	}
	// Top up with a splitting set of U \ X̄ (Lemma 30's set S).
	rest := subtract(U, xbar)
	S := c.split(rest, psi, target-got+maxOver(psi, rest)/2)
	return append(xbar, S...)
}

// extractChunk is Claim 4 of Appendix A.2: a nonempty X ⊆ U with
// w(X) ≤ maxw (the global ‖w‖∞) and, whenever w(U) ≥ maxw/2, with
// w(X) ≥ maxw/2; the boundary cost inside G[U] is at most
// π^{1/p}(U) + Δ_c. Used by both bin-packing procedures.
func (c *ctx) extractChunk(U []int32, w []float64, maxw float64) []int32 {
	if len(U) == 0 {
		return nil
	}
	if maxw <= 0 {
		return []int32{U[0]}
	}
	// A single vertex of weight ≥ maxw/2 is a chunk by itself.
	for _, v := range U {
		if w[v] >= maxw/2 {
			return []int32{v}
		}
	}
	// Otherwise ‖w|U‖∞ < maxw/2, so the splitting window is < maxw/4 and a
	// target of (3/4)·maxw yields w(X) ∈ [maxw/2, maxw].
	X := c.split(U, w, 0.75*maxw)
	if len(X) == 0 || sumOver(w, X) > maxw*(1+1e-9) {
		// The oracle violated its Definition 3 contract (or returned
		// nothing). The chunk weight cap is what the strict-balance greedy
		// argument rests on, so enforce it independently of the oracle
		// with a deterministic prefix chunk.
		var fallback []int32
		acc := 0.0
		for _, v := range U {
			if len(fallback) > 0 && acc+w[v] > maxw {
				break
			}
			fallback = append(fallback, v)
			acc += w[v]
		}
		return fallback
	}
	return X
}
