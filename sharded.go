package probsyn

import (
	"fmt"

	"probsyn/internal/haar"
	"probsyn/internal/hist"
	"probsyn/internal/pdata"
	"probsyn/internal/shard"
	"probsyn/internal/wavelet"
)

// ShardedResult is a domain-sharded build: the item domain is split into
// k contiguous shards, each shard's synopsis is built independently (and
// concurrently), and the per-shard solutions are merged under the global
// term budget into one synopsis over the whole domain.
type ShardedResult struct {
	// Synopsis is the merged global synopsis over the full domain.
	Synopsis Synopsis
	// Bound is the additive suboptimality certificate:
	// Synopsis.ErrorCost() <= exact unsharded optimum + Bound, at every k
	// (under WithQuantize, k = 1 carries the quantized DP's own bound). It
	// is exactly 0 for the SSE wavelet family, whose sharded build is the
	// unsharded greedy.
	Bound float64
}

// BuildSharded builds a B-term synopsis by splitting the domain into k
// contiguous shards, building each shard concurrently, and merging:
//
//   - SSE/SSEFixed wavelets are not split: Theorem 7's greedy top-B is
//     already one O(n log n) pass, so a sharded SSE build checks k and
//     runs that greedy on one build token — the unsharded bytes, with
//     Bound = 0;
//   - histograms and the restricted wavelet DP metrics solve each shard
//     to a cost-vs-budget frontier and split B across shards by an exact
//     allocation DP, with the reported cost the true combined expected
//     error and Bound certifying it against the unsharded optimum.
//
// k = 1 is the unsharded build; wavelet shard counts must be powers of
// two. The DP families need B >= k (every shard retains at least one
// term). On a pool with a MaxBuilds admission cap, a k-way sharded DP build
// holds up to k build tokens — acquired all-or-nothing, and gracefully
// degrading to fewer (serializing shards) when the cap is smaller — so a
// burst of sharded builds cannot oversubscribe the pool. WithQuantize is
// accepted at k = 1 only: at k >= 2 a finer unsharded grid costs about the
// same time for a lower cost and a tighter bound, so the quantized merge is
// refused. WithEps and WithUnrestricted have no sharded merge rule and are
// rejected.
func BuildSharded(src Source, m Metric, B, k int, opts ...BuildOption) (*ShardedResult, error) {
	p, err := resolve(src, m, opts, modeSharded)
	if err != nil {
		return nil, err
	}
	return p.sharded(src, B, k)
}

func (p *plan) sharded(src Source, B, k int) (*ShardedResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("probsyn: shard count %d < 1", k)
	}
	if p.family == waveletSSE && k > 1 {
		// Theorem 7's top-B is one O(n log n) greedy over the whole domain,
		// so a sharded SSE build is that greedy, on one token: the k-way
		// split is only checked, never run.
		if err := wavelet.CheckShards(haar.Pow2Ceil(src.Domain()), k); err != nil {
			return nil, err
		}
		k = 1
	}
	if k == 1 {
		// One shard is the unsharded build; what stands between it and the
		// exact optimum is its own DP's bound (a quantized wavelet's, else 0).
		syn, fr, err := p.build(src, B)
		if err != nil {
			return nil, err
		}
		return &ShardedResult{Synopsis: syn, Bound: ApproxBound(fr)}, nil
	}
	if p.q > 0 {
		return nil, fmt.Errorf("probsyn: a quantized wavelet DP is not sharded (k = %d): build unsharded, with a finer WithQuantize grid for the same time", k)
	}
	conc, release, err := p.admit(k)
	if err != nil {
		return nil, err
	}
	defer release()
	if _, isWavelet := p.family.wavelet(); !isWavelet {
		return p.shardedHistogram(src, B, k, conc)
	}
	res, err := wavelet.BuildShardedRestricted(src, p.metric, p.params, B, k, p.pool, conc)
	if err != nil {
		return nil, err
	}
	p.report(res.Stats)
	return &ShardedResult{Synopsis: res.Merged, Bound: res.Bound}, nil
}

// shardedHistogram prices shards against the source's per-item marginal
// value pdf. That is lossless: every bucket-cost oracle is a per-item
// expectation aggregated over the bucket, so it depends on the per-item
// marginals only, and AsValuePDF preserves those for all three data
// models.
func (p *plan) shardedHistogram(src Source, B, k, conc int) (*ShardedResult, error) {
	vp := pdata.AsValuePDF(src)
	if k > vp.N {
		return nil, fmt.Errorf("probsyn: %d shards over %d items (need k <= n)", k, vp.N)
	}
	if p.weights != nil && len(p.weights) != vp.N {
		return nil, fmt.Errorf("probsyn: %d workload weights for %d items", len(p.weights), vp.N)
	}
	bounds := shard.Bounds(vp.N, k)
	oracles := make([]hist.Oracle, k)
	for s := range oracles {
		lo, hi := bounds[s], bounds[s+1]
		var weights []float64
		if p.weights != nil {
			weights = p.weights[lo:hi]
		}
		o, err := p.oracle(&pdata.ValuePDF{N: hi - lo, Items: vp.Items[lo:hi]}, weights)
		if err != nil {
			return nil, err
		}
		oracles[s] = o
	}
	res, err := hist.BuildSharded(oracles, bounds, B, p.pool, conc)
	if err != nil {
		return nil, err
	}
	p.report(res.Stats)
	return &ShardedResult{Synopsis: res.Merged, Bound: res.Bound}, nil
}
