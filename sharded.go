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
// term budget. The per-shard solutions survive as Pieces — Pieces[s] is
// shard s's synopsis over its own local domain [0, Bounds[s+1]-Bounds[s]),
// covering global items [Bounds[s], Bounds[s+1]) — for callers that want
// to inspect what each shard contributed (psyn -shards tabulates them).
// Only Synopsis is ever served or persisted.
type ShardedResult struct {
	// Synopsis is the merged global synopsis over the full domain.
	Synopsis Synopsis
	// Pieces are the k per-shard synopses over their local subdomains.
	Pieces []Synopsis
	// Bounds are the k+1 global item boundaries of the shards, as
	// returned by ShardBounds: Pieces[s] covers [Bounds[s], Bounds[s+1]).
	Bounds []int
	// Bound is the additive suboptimality certificate:
	// Synopsis.ErrorCost() <= exact unsharded optimum + Bound, at every k
	// (under WithQuantize, k = 1 carries the quantized DP's own bound). It
	// is exactly 0 for the SSE wavelet family, whose sharded merge is exact.
	Bound float64
}

// ShardBounds returns the k+1 global item boundaries a k-way sharded
// build uses over a domain of n items: near-equal contiguous ranges,
// shard s covering [s*n/k, (s+1)*n/k). Wavelet builds shard the
// zero-padded power-of-two domain (pass wavelet=true), so their
// boundaries divide haar.Pow2Ceil(n) instead of n.
func ShardBounds(n, k int, wavelet bool) []int {
	if wavelet {
		n = haar.Pow2Ceil(n)
	}
	return shard.Bounds(n, k)
}

// BuildSharded builds a B-term synopsis by splitting the domain into k
// contiguous shards, building each shard concurrently, and merging:
//
//   - SSE/SSEFixed wavelets merge per-shard coefficient selections into
//     the exact global top-B — bit-identical to the unsharded build,
//     expected SSE included (Bound = 0);
//   - histograms and the restricted wavelet DP metrics solve each shard
//     to a cost-vs-budget frontier and split B across shards by an exact
//     allocation DP, with the reported cost the true combined expected
//     error and Bound certifying it against the unsharded optimum.
//
// k = 1 is the unsharded build (one piece spanning the domain); wavelet
// shard counts must be powers of two. The DP families need B >= k (every
// shard retains at least one term). On a pool with a MaxBuilds admission
// cap, a k-way sharded build holds up to k build tokens — acquired
// all-or-nothing, and gracefully degrading to fewer (serializing shards)
// when the cap is smaller — so a cluster of sharded builds cannot
// oversubscribe the pool. Accepts WithQuantize for the restricted
// wavelet family; WithEps and WithUnrestricted have no sharded merge
// rule and are rejected.
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
	_, isWavelet := p.family.wavelet()
	if k == 1 {
		// One shard is the unsharded build; what stands between it and the
		// exact optimum is its own DP's bound (a quantized wavelet's, else 0).
		syn, fr, err := p.build(src, B)
		if err != nil {
			return nil, err
		}
		return &ShardedResult{
			Synopsis: syn,
			Pieces:   []Synopsis{syn},
			Bounds:   ShardBounds(src.Domain(), 1, isWavelet),
			Bound:    ApproxBound(fr),
		}, nil
	}
	conc, release, err := p.admit(k)
	if err != nil {
		return nil, err
	}
	defer release()
	if !isWavelet {
		return p.shardedHistogram(src, B, k, conc)
	}
	bounds := ShardBounds(src.Domain(), k, true)
	var res *wavelet.ShardedResult
	if p.family == waveletSSE {
		res, _, err = wavelet.BuildShardedSSE(src, B, k, conc)
	} else {
		res, err = wavelet.BuildShardedRestricted(src, p.metric, p.params, B, k, p.q, p.pool, conc)
	}
	if err != nil {
		return nil, err
	}
	p.report(res.Stats)
	return rootSharded(res.Merged, res.Pieces, bounds, res.Bound), nil
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
	return rootSharded(res.Merged, res.Pieces, bounds, res.Bound), nil
}

// rootSharded lifts a family-layer sharded result (concrete synopsis
// pointers) into the interface-typed root result.
func rootSharded[S Synopsis](merged S, pieces []S, bounds []int, bound float64) *ShardedResult {
	out := &ShardedResult{Synopsis: merged, Bounds: bounds, Bound: bound}
	out.Pieces = make([]Synopsis, len(pieces))
	for i, p := range pieces {
		out.Pieces[i] = p
	}
	return out
}
