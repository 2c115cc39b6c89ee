package probsyn

import (
	"fmt"

	"probsyn/internal/engine"
	"probsyn/internal/hist"
	"probsyn/internal/pdata"
	"probsyn/internal/shard"
)

// ShardedResult is a domain-sharded histogram build: the item domain is
// split into k contiguous shards, each shard's histogram is built
// independently, and the per-shard solutions are merged under the global
// bucket budget into one histogram over the whole domain.
type ShardedResult struct {
	// Synopsis is the merged global histogram over the full domain.
	Synopsis Synopsis
	// Bound is the additive suboptimality certificate:
	// Synopsis.ErrorCost() <= exact unsharded optimum + Bound, at every k
	// (0 at k = 1, the unsharded build).
	Bound float64
}

// BuildSharded builds a B-bucket histogram by splitting the domain into k
// contiguous near-equal shards, building each independently, and
// merging: each shard's DP is solved to a cost-vs-budget frontier over
// its slice of the items (and of any workload weights), B is split
// across the k frontiers by an exact allocation DP, and the shards'
// buckets are re-anchored to global items. The reported cost is the true
// combined expected error, and Bound is the allocation's gap between B
// and B+k-1 buckets: the unsharded optimum cut at the k-1 shard
// boundaries is a sharded histogram of at most B+k-1 buckets that costs
// no more.
//
// k = 1 is the unsharded build; k >= 2 needs B >= k (every shard keeps
// at least one bucket) and k <= n. A sharded build is one build: it
// takes one token of a MaxBuilds admission cap, like Build, and its w
// workers (WithParallelism, or the WithPool pool's) are its CPUs — up to
// w shards solve at once, each shard's DP serial while more than one
// does.
//
// Against WithEps it is on the front under SAE, and under SSE on
// datagen's mystiq data (DESIGN.md finding 5: mystiq n=32768 SSE, k=2
// +0.00% in 3.5 s, eps=0.5 +0.46% in 4.5 s).
//
// A wavelet is not sharded: WithWavelet is refused at every k. Past the
// exact tree DP's reach, an unsharded WithQuantize build is as fast, no
// worse and certified far tighter than a sharded merge (DESIGN.md,
// "Sharded builds"). WithEps has no frontier to merge and is refused.
func BuildSharded(src Source, m Metric, B, k int, opts ...BuildOption) (*ShardedResult, error) {
	p, err := resolve(src, m, opts, modeSharded)
	if err != nil {
		return nil, err
	}
	return p.sharded(src, B, k)
}

// sharded is BuildSharded's one loop: on one build token, the k shard
// frontiers fanned over the pool's workers, one allocation over their
// costs, each shard extracted at its share of B and the pieces merged.
func (p *plan) sharded(src Source, B, k int) (*ShardedResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("probsyn: shard count %d < 1", k)
	}
	if k == 1 {
		syn, _, err := p.build(src, B)
		if err != nil {
			return nil, err
		}
		return &ShardedResult{Synopsis: syn}, nil
	}
	n := src.Domain()
	if k > n {
		return nil, fmt.Errorf("probsyn: %d shards over %d items (need k <= n)", k, n)
	}
	if p.weights != nil {
		// Checked whole: an error names the item, not its place in a shard.
		if err := hist.CheckWorkloadWeights(p.weights, n); err != nil {
			return nil, err
		}
	}
	if B < k {
		return nil, fmt.Errorf("probsyn: %d shards need budget >= %d (one bucket per shard), got %d", k, k, B)
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
	// Shard s can usefully hold up to B buckets, what it keeps at the
	// bound's reference total B+k-1 when every other shard keeps one, and
	// no more than its width.
	bounds := shard.Bounds(n, k)
	fronts := make([]countedFrontier, k)
	err = engine.Fan(k, conc, func(s int) error {
		lo, hi := bounds[s], bounds[s+1]
		sp := *p
		sp.pool = pool
		if p.weights != nil {
			sp.weights = p.weights[lo:hi]
		}
		f, err := sp.frontier(shardSource(src, lo, hi), min(B, hi-lo), nil)
		if err != nil {
			return fmt.Errorf("probsyn: shard %d: %w", s, err)
		}
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
	alloc, err := shard.Allocate(B+k-1, caps, p.metric.Cumulative(), func(s, b int) float64 { return fronts[s].Cost(b) })
	if err != nil {
		return nil, err
	}
	pieces := make([]*hist.Histogram, k)
	for s, b := range alloc.Split(B) {
		piece, err := fronts[s].Synopsis(b)
		if err != nil {
			return nil, err
		}
		pieces[s] = piece.(*hist.Histogram)
	}
	merged, err := hist.MergeShards(pieces, bounds, alloc.Cost(B))
	if err != nil {
		return nil, err
	}
	bound := alloc.Cost(B) - alloc.Cost(B+k-1)
	if bound < 0 {
		bound = 0
	}
	p.report(stats)
	return &ShardedResult{Synopsis: merged, Bound: bound}, nil
}

// shardSource is src restricted to the items [lo, hi), re-indexed from 0,
// in src's own model: a value pdf's items, or each tuple's alternatives in
// range, a tuple with none dropped (a basic relation as its tuple pdf).
// A bucket inside the shard then costs what it costs in src under every
// metric: Eq. (5) prices a tuple pdf's correlations through each tuple's
// mass inside the bucket, and the other metrics read per-item marginals.
func shardSource(src Source, lo, hi int) Source {
	var tp *pdata.TuplePDF
	switch s := src.(type) {
	case *pdata.ValuePDF:
		return &pdata.ValuePDF{N: hi - lo, Items: s.Items[lo:hi]}
	case *pdata.Basic:
		tp = s.TuplePDF()
	case *pdata.TuplePDF:
		tp = s
	}
	out := &pdata.TuplePDF{N: hi - lo}
	for _, t := range tp.Tuples {
		var in pdata.Tuple
		for _, a := range t.Alts {
			if a.Item >= lo && a.Item < hi {
				in.Alts = append(in.Alts, pdata.Alternative{Item: a.Item - lo, Prob: a.Prob})
			}
		}
		if len(in.Alts) > 0 {
			out.Tuples = append(out.Tuples, in)
		}
	}
	return out
}
