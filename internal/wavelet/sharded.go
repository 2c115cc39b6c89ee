package wavelet

import (
	"fmt"
	"math"
	"sort"

	"probsyn/internal/engine"
	"probsyn/internal/haar"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/numeric"
	"probsyn/internal/pdata"
	"probsyn/internal/shard"
)

// ShardedResult is a domain-sharded restricted-DP build: the padded
// domain is split into k equal contiguous shards, each shard's Haar
// subtree is solved independently, and the per-shard solutions are merged
// into one global synopsis over the whole padded domain. (The SSE family
// has no sharded build: Theorem 7's greedy is one O(n log n) top-B, and a
// sharded SSE build is that greedy.)
type ShardedResult struct {
	Merged *Synopsis
	// Bound is the additive suboptimality of Merged.Cost against the
	// unsharded optimum at the same budget: the budget-allocation gap
	// plus the forced-top-tree reconstruction slack.
	Bound float64
	// Stats is the DP work summed over the shard sweeps.
	Stats hist.DPStats
}

// CheckShards validates a k-way split of the padded domain n: shard
// subtrees must tile the Haar tree, so k must be a power of two no
// larger than n.
func CheckShards(n, k int) error {
	if k < 2 {
		return fmt.Errorf("wavelet: sharded build needs k >= 2 shards, got %d", k)
	}
	if !haar.IsPow2(k) {
		return fmt.Errorf("wavelet: shard count %d not a power of two", k)
	}
	if k > n {
		return fmt.Errorf("wavelet: %d shards over padded domain %d (need k <= n)", k, n)
	}
	return nil
}

// globalIndex maps shard s's local detail coefficient i (level l within
// the width-w=N/k shard subtree) to its global Haar-tree index: the
// shard subtrees are the k subtrees rooted one level below the top
// tree, so local level l lands at global level log2(k)+l and shard s's
// block at that level starts at (k+s)·2^l.
func globalIndex(i, s, k int) int {
	l := haar.Level(i)
	return (k+s)<<l + (i - 1<<l)
}

// BuildShardedRestricted is the domain-sharded exact restricted DP: each
// shard runs a forced-root restricted sweep over its own subdomain (its local c0 —
// the shard average — pinned retained, so the local solution composes
// with the top tree), and an exact budget-allocation DP over the k
// frontiers splits the global budget B.
//
// The merged synopsis retains the full k-coefficient top tree at its
// expected values (restricted-legal: they are exactly the global
// expected coefficients, by linearity of the transform over shard
// averages) plus every piece's details — Σ_s b_s terms for per-shard
// budgets summing to B, since each piece's forced c0 trades 1:1 for its
// top-tree slot. Merged.Cost is the allocation DP's exact combination
// of per-shard costs, and the returned Bound certifies
// Merged.Cost <= OPT + Bound against the unsharded optimum.
func BuildShardedRestricted(src pdata.Source, kind metric.Kind, p metric.Params, B, k int, pool *engine.Pool, conc int) (*ShardedResult, error) {
	if B < 0 {
		return nil, fmt.Errorf("wavelet: negative budget %d", B)
	}
	vp := padValuePDF(pdata.AsValuePDF(src))
	N := vp.N
	if err := CheckShards(N, k); err != nil {
		return nil, err
	}
	if B > N {
		B = N
	}
	if B < k {
		return nil, fmt.Errorf("wavelet: sharded restricted build needs budget >= k=%d (one coefficient per shard), got %d", k, B)
	}
	w := N / k
	// Shard s can usefully hold up to min(B+1, w) terms: B+1 because at
	// the bound's reference total B+k the other k-1 shards keep one term
	// each; w because that is its whole subdomain.
	caps := make([]int, k)
	for s := range caps {
		caps[s] = min(B+1, w)
	}
	sweeps := make([]*Sweep, k)
	pes := make([]*PointErrors, k)
	err := engine.Fan(k, conc, func(s int) error {
		svp := &pdata.ValuePDF{N: w, Items: vp.Items[s*w : (s+1)*w]}
		sw, pe, err := sweepDP(svp, RestrictedFamily, kind, p, caps[s], 0, true, pool)
		if err != nil {
			return err
		}
		sw.Cost(1) // the allocation reads every shard's whole curve: price it here, k at a time
		sweeps[s], pes[s] = sw, pe
		return nil
	})
	if err != nil {
		return nil, err
	}
	cum := kind.Cumulative()
	alloc, err := shard.Allocate(B+k, caps, cum, func(s, b int) float64 {
		c, _ := sweeps[s].Cost(b) // only a released sweep errs, and these never are
		return c
	})
	if err != nil {
		return nil, err
	}
	split := alloc.Split(B)
	pieces := make([]*Synopsis, k)
	for s, b := range split {
		syn, err := sweeps[s].Synopsis(b)
		if err != nil {
			return nil, err
		}
		pieces[s] = syn
	}

	// Merge: full top tree + re-indexed piece details, sorted globally.
	avgs := make([]float64, k)
	for s, piece := range pieces {
		avgs[s] = piece.Values[0] // forced local c0 = shard average
	}
	top := haar.Forward(avgs)
	type cv struct {
		g int
		v float64
	}
	coefs := make([]cv, 0, k+B)
	for g := 0; g < k; g++ {
		coefs = append(coefs, cv{g, top[g]})
	}
	for s, piece := range pieces {
		for j := 1; j < len(piece.Indices); j++ {
			coefs = append(coefs, cv{globalIndex(piece.Indices[j], s, k), piece.Values[j]})
		}
	}
	sort.Slice(coefs, func(a, b int) bool { return coefs[a].g < coefs[b].g })
	merged := &Synopsis{
		N:       N,
		Indices: make([]int, len(coefs)),
		Values:  make([]float64, len(coefs)),
		Cost:    alloc.Cost(B),
	}
	for j, c := range coefs {
		merged.Indices[j] = c.g
		merged.Values[j] = c.v
	}

	// Additive bound against the unsharded restricted optimum OPT.
	// Take the optimum's solution S*, add the full top tree: that is a
	// forced per-shard solution with at most B+k terms, so the alloc
	// table at total B+k is <= err(S*∪top), and err(S*∪top) <= OPT + pen,
	// where pen prices the reconstruction drift from retaining top-tree
	// coefficients S* dropped. Hence Cost = A(B) <= OPT + (A(B)-A(B+k)) + pen.
	bound := math.Max(0, alloc.Cost(B)-alloc.Cost(B+k))
	bound += forcedTopPenalty(vp, kind, pes, k, cum)

	res := &ShardedResult{Merged: merged, Bound: bound}
	for _, sw := range sweeps {
		res.Stats.Add(sw.stats)
	}
	return res, nil
}

// forcedTopPenalty bounds how much expected error retaining the full
// top tree can add over any restricted solution. All restricted
// solutions reconstruct each item as a subset sum of its ancestors'
// expected contributions, so per item the reconstruction lives in the
// interval [Σ negative contribs, Σ positive contribs]; within a shard
// the top-tree ancestors are shared, so the drift from toggling any
// top-tree subset is at most δ̂_s = max(Σ positive, -Σ negative) over
// the shard's top-tree path contributions. The per-item error function
// is Lipschitz on the reachable interval (errSlack), and the penalties
// combine like the metric.
func forcedTopPenalty(vp *pdata.ValuePDF, kind metric.Kind, pes []*PointErrors, k int, cum bool) float64 {
	N := vp.N
	w := N / k
	cg := haar.Forward(vp.ExpectedFreqs())
	squared := kind == metric.SSEFixed || kind == metric.SSRE
	var acc numeric.Accumulator
	worst := 0.0
	for s := 0; s < k; s++ {
		var pos, neg float64
		for _, g := range haar.Path(s*w, N) {
			if g >= k {
				continue
			}
			c := haar.Sign(g, s*w, N) * cg[g]
			if c > 0 {
				pos += c
			} else {
				neg += c
			}
		}
		dhat := math.Max(pos, -neg)
		if dhat == 0 {
			continue
		}
		for i := s * w; i < (s+1)*w; i++ {
			var lo, hi float64
			if squared {
				// The absolute family's slack is interval-independent;
				// only the squared family needs the reachable interval.
				for _, g := range haar.Path(i, N) {
					c := haar.Sign(g, i, N) * cg[g]
					if c > 0 {
						hi += c
					} else {
						lo += c
					}
				}
			}
			e := pes[s].errSlack(i-s*w, lo, hi, dhat)
			if cum {
				acc.Add(e)
			} else if e > worst {
				worst = e
			}
		}
	}
	if cum {
		return acc.Value()
	}
	return worst
}
