// Package shard holds the two pieces of a domain-sharded histogram
// build that are not histogram code: the deterministic contiguous
// partition of an item domain into k shards, and the exact budget-
// allocation dynamic program that recombines per-shard cost frontiers
// into one global budget split.
//
// The allocation DP is exact, not a greedy frontier walk: per-shard
// frontiers need not be convex (a histogram's marginal gain can jump
// when one extra bucket isolates a spike), and a greedy walk commits to
// locally-best increments that a non-convex frontier punishes. The DP
// costs O(k·T²) frontier lookups for a total budget T — negligible next
// to the per-shard builds it stitches together — and is deterministic:
// budgets are scanned in ascending order with strict <, so ties resolve
// to the same split on every run and at every worker count.
package shard

import (
	"fmt"
	"math"
)

// Bounds returns the k+1 boundaries of the contiguous near-equal
// partition of [0, n) into k shards: shard s covers
// [Bounds(n,k)[s], Bounds(n,k)[s+1]). The split is the same arithmetic
// the engine's ChunkBounds uses, so any process that knows (n, k)
// recomputes identical boundaries.
func Bounds(n, k int) []int {
	out := make([]int, k+1)
	for s := 0; s <= k; s++ {
		out[s] = s * n / k
	}
	return out
}

// Alloc is a solved budget-allocation DP over k per-shard cost
// frontiers: Cost(t) answers the optimal combined cost of splitting a
// total budget t across the shards with every shard allocated at least
// one term, for every t up to the solved maximum, and Split(t) recovers
// the per-shard budgets achieving it.
type Alloc struct {
	k        int
	maxTotal int
	vals     [][]float64 // vals[s][t]: best combined cost of shards 0..s at total t
	pick     [][]int     // pick[s][t]: shard s's budget in that optimum
}

// Allocate solves the allocation DP up to maxTotal. caps[s] is shard
// s's frontier ceiling (its Bmax): cost(s, b) is consulted only for
// 1 <= b <= caps[s], and allocations beyond the cap are priced at the
// cap — budget past a frontier's ceiling cannot reduce its cost, so the
// clamp is exact, and the recorded pick is the clamped budget the
// caller can extract at. cumulative selects how per-shard costs
// combine: sum for cumulative metrics, max for maximum-error ones.
// cost must be non-increasing in b and safe for repeated calls.
func Allocate(maxTotal int, caps []int, cumulative bool, cost func(s, b int) float64) (*Alloc, error) {
	k := len(caps)
	if k < 1 {
		return nil, fmt.Errorf("shard: no shards to allocate over")
	}
	if maxTotal < k {
		return nil, fmt.Errorf("shard: total budget %d cannot give %d shards one term each", maxTotal, k)
	}
	for s, c := range caps {
		if c < 1 {
			return nil, fmt.Errorf("shard: shard %d has frontier cap %d, want >= 1", s, c)
		}
	}
	a := &Alloc{k: k, maxTotal: maxTotal}
	ccost := func(s, b int) float64 {
		if b > caps[s] {
			b = caps[s]
		}
		return cost(s, b)
	}
	a.vals = make([][]float64, k)
	a.pick = make([][]int, k)
	for s := 0; s < k; s++ {
		a.vals[s] = make([]float64, maxTotal+1)
		a.pick[s] = make([]int, maxTotal+1)
		for t := range a.vals[s] {
			a.vals[s][t] = math.Inf(1)
		}
	}
	for t := 1; t <= maxTotal; t++ {
		a.vals[0][t] = ccost(0, t)
		a.pick[0][t] = min(t, caps[0])
	}
	for s := 1; s < k; s++ {
		for t := s + 1; t <= maxTotal; t++ {
			best, bestB := math.Inf(1), 0
			bhi := t - s // shards 0..s-1 need one term each
			if bhi > caps[s] {
				bhi = caps[s]
			}
			for b := 1; b <= bhi; b++ {
				prev := a.vals[s-1][t-b]
				c := ccost(s, b)
				if cumulative {
					c += prev
				} else if prev > c {
					c = prev
				}
				if c < best {
					best, bestB = c, b
				}
			}
			a.vals[s][t] = best
			a.pick[s][t] = bestB
		}
	}
	return a, nil
}

// Cost returns the optimal combined cost at the given total budget,
// clamped to [k, maxTotal].
func (a *Alloc) Cost(total int) float64 {
	return a.vals[a.k-1][a.clamp(total)]
}

// Split returns the per-shard budgets of the optimum at the given total
// (clamped like Cost). Every entry is within [1, caps[s]]; the entries
// sum to at most the total (less when a shard's cap binds).
func (a *Alloc) Split(total int) []int {
	t := a.clamp(total)
	out := make([]int, a.k)
	for s := a.k - 1; s >= 1; s-- {
		out[s] = a.pick[s][t]
		// The DP scanned unclamped budgets; recover the unclamped step to
		// keep the running total consistent with the table indices.
		t -= out[s]
	}
	out[0] = a.pick[0][t]
	return out
}

func (a *Alloc) clamp(total int) int {
	if total > a.maxTotal {
		total = a.maxTotal
	}
	if total < a.k {
		total = a.k
	}
	return total
}
