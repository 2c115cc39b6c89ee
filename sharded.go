package probsyn

import (
	"fmt"

	"probsyn/internal/engine"
	"probsyn/internal/haar"
	"probsyn/internal/hist"
	"probsyn/internal/pdata"
	"probsyn/internal/shard"
	"probsyn/internal/wavelet"
)

// ShardedResult is a domain-sharded build: the item domain is split into
// k contiguous shards, each shard's synopsis is built independently, and
// the per-shard solutions are merged under the global term budget into one
// synopsis over the whole domain.
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
// contiguous shards, building each shard independently, and merging:
//
//   - SSE/SSEFixed wavelets are not split: Theorem 7's greedy top-B is
//     already one O(n log n) pass, so a sharded SSE build checks k and
//     runs that greedy on one build token — the unsharded bytes, with
//     Bound = 0;
//   - histograms and the restricted wavelet DP metrics run one loop: each
//     shard's DP solved to a cost-vs-budget frontier (a histogram shard's
//     over its slice of the items and of any workload weights, a wavelet
//     shard's over its subtree with the subtree's root kept), B split
//     across the k frontiers by an exact allocation DP, and the shards'
//     pieces joined by the family's merge — histogram buckets re-anchored
//     to global items, wavelet details placed under the top tree. The
//     reported cost is the true combined expected error, and Bound is
//     the allocation's gap to the slack budget plus the family's penalty
//     (none for histograms, the top tree's for wavelets).
//
// k = 1 is the unsharded build; wavelet shard counts must be powers of
// two. The DP families need B >= k (every shard retains at least one
// term). A sharded build is one build: it takes one token of a MaxBuilds
// admission cap, like Build, and its w workers (WithParallelism, or the
// WithPool pool's) are its CPUs — up to w shards solve at once, each
// shard's DP serial while more than one does. WithQuantize is
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

// sharded is BuildSharded's one loop: on one build token, the family's
// k shard frontiers fanned over the pool's workers, one allocation over
// their costs, each shard extracted at its share of B and the pieces
// merged by the family.
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
	shards := p.histShards
	if p.family == waveletRestricted {
		shards = p.waveletShards
	}
	split, err := shards(src, B, k)
	if err != nil {
		return nil, err
	}
	B = split.B
	if B < k {
		return nil, fmt.Errorf("probsyn: %d shards need budget >= %d (one term per shard), got %d", k, k, B)
	}
	release, err := p.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	// The build's workers are its CPUs, whether they run shards or a
	// shard's DP: up to Workers() shards solve at once, each shard's DP
	// serial while more than one does, and with one worker the shards run
	// in turn on the caller's pool.
	conc, pool := min(k, p.pool.Workers()), p.pool
	if conc > 1 {
		pool = engine.Serial()
	}
	// Shard s can usefully hold up to B+slack-(k-1) terms, what it keeps
	// at the bound's reference total B+slack when every other shard keeps
	// one, and no more than its width.
	fronts := make([]countedFrontier, k)
	err = engine.Fan(k, conc, func(s int) error {
		lo, hi := split.bounds[s], split.bounds[s+1]
		f, err := split.frontier(s, min(B+split.slack-k+1, hi-lo), pool)
		if err != nil {
			return fmt.Errorf("probsyn: shard %d: %w", s, err)
		}
		f.Cost(1) // the allocation reads every shard's whole curve: price it here, conc at a time
		fronts[s] = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	caps := make([]int, k)
	var stats DPStats
	for s, f := range fronts {
		caps[s] = f.Bmax()
		stats.Add(f.Stats())
	}
	alloc, err := shard.Allocate(B+split.slack, caps, p.metric.Cumulative(), func(s, b int) float64 { return fronts[s].Cost(b) })
	if err != nil {
		return nil, err
	}
	pieces := make([]Synopsis, k)
	for s, b := range alloc.Split(B) {
		if pieces[s], err = fronts[s].Synopsis(b); err != nil {
			return nil, err
		}
	}
	merged, err := split.merge(pieces, alloc.Cost(B))
	if err != nil {
		return nil, err
	}
	// The unsharded optimum, made sharded (cut at the shard boundaries,
	// or topped up with the top tree), is a solution of at most B+slack
	// terms that costs at most OPT + penalty: A(B) <= OPT + bound.
	bound := alloc.Cost(B) - alloc.Cost(B+split.slack)
	if bound < 0 {
		bound = 0
	}
	if split.penalty != nil {
		bound += split.penalty()
	}
	p.report(stats)
	return &ShardedResult{Synopsis: merged, Bound: bound}, nil
}

// shardSplit is what a family brings to the sharded loop: where its shards
// lie, the budget it splits, how to solve one shard and join the pieces,
// and its terms of the bound.
type shardSplit struct {
	bounds   []int // shard s covers [bounds[s], bounds[s+1])
	B        int   // the budget, clamped as the family's unsharded build clamps it
	slack    int   // the bound's reference total is B+slack
	frontier func(s, Bmax int, pool *engine.Pool) (countedFrontier, error)
	merge    func(pieces []Synopsis, cost float64) (Synopsis, error)
	penalty  func() float64 // nil: the allocation gap is the whole bound
}

// histShards splits a histogram over contiguous near-equal item ranges,
// each solved by the plan's own frontier over the shard's slice of the
// per-item marginal value pdf (and of the workload weights). That is
// lossless: every bucket-cost oracle is a per-item expectation aggregated
// over the bucket, so it depends on the per-item marginals only, and
// AsValuePDF preserves those for all three data models. An unsharded
// B-bucket histogram cut at the k-1 interior boundaries is a sharded one
// of at most B+k-1 buckets that costs no more (each piece re-optimizes its
// representative), so the slack is k-1 with no penalty.
func (p *plan) histShards(src Source, B, k int) (*shardSplit, error) {
	vp := pdata.AsValuePDF(src)
	if k > vp.N {
		return nil, fmt.Errorf("probsyn: %d shards over %d items (need k <= n)", k, vp.N)
	}
	if p.weights != nil && len(p.weights) != vp.N {
		return nil, fmt.Errorf("probsyn: %d workload weights for %d items", len(p.weights), vp.N)
	}
	bounds := shard.Bounds(vp.N, k)
	return &shardSplit{
		bounds: bounds, B: B, slack: k - 1,
		frontier: func(s, Bmax int, pool *engine.Pool) (countedFrontier, error) {
			lo, hi := bounds[s], bounds[s+1]
			sp := *p
			sp.pool = pool
			if p.weights != nil {
				sp.weights = p.weights[lo:hi]
			}
			return sp.frontier(&pdata.ValuePDF{N: hi - lo, Items: vp.Items[lo:hi]}, Bmax)
		},
		merge: func(pieces []Synopsis, cost float64) (Synopsis, error) {
			hs := make([]*hist.Histogram, k)
			for s, piece := range pieces {
				hs[s] = piece.(*hist.Histogram)
			}
			// Return an untyped nil on error, as histFrontier.Synopsis does.
			h, err := hist.MergeShards(hs, bounds, cost)
			if err != nil {
				return nil, err
			}
			return h, nil
		},
	}, nil
}

// waveletShards splits a restricted wavelet into the k subtrees one level
// below the top tree (wavelet.Shards), with the budget clamped to the
// padded domain. Adding the k top-tree coefficients to an unsharded
// solution makes a sharded one of at most B+k terms, which costs at most
// the top tree's penalty more: the slack is k.
func (p *plan) waveletShards(src Source, B, k int) (*shardSplit, error) {
	ws, err := wavelet.NewShards(src, p.metric, p.params, k)
	if err != nil {
		return nil, err
	}
	return &shardSplit{
		bounds: shard.Bounds(ws.N(), k), B: min(B, ws.N()), slack: k,
		frontier: func(s, Bmax int, pool *engine.Pool) (countedFrontier, error) {
			sw, err := ws.Sweep(s, Bmax, pool)
			if err != nil {
				return nil, err
			}
			return waveletFrontier{sw}, nil
		},
		merge: func(pieces []Synopsis, cost float64) (Synopsis, error) {
			syns := make([]*wavelet.Synopsis, k)
			for s, piece := range pieces {
				syns[s] = piece.(*wavelet.Synopsis)
			}
			return ws.Merge(syns, cost), nil
		},
		penalty: ws.Penalty,
	}, nil
}
