package hist

import (
	"fmt"

	"probsyn/internal/engine"
	"probsyn/internal/shard"
)

// ShardedResult is a domain-sharded histogram build: contiguous shards
// of the domain solved by independent DPs, recombined by an exact
// budget-allocation DP over the per-shard frontiers. Merged is the shards'
// local histograms re-anchored to global item coordinates.
type ShardedResult struct {
	Merged *Histogram
	// Bound is the additive suboptimality of Merged.Cost against the
	// unsharded optimum at the same budget. It is exact slack-free
	// accounting: any unsharded B-bucket histogram splits at the k-1
	// interior shard boundaries into a valid sharded solution of at most
	// B+k-1 buckets without cost increase (a sub-bucket re-optimizes its
	// representative over fewer items), so the sharded frontier at
	// budget B+k-1 already lower-bounds OPT and
	// Bound = max(0, A(B) - A(B+k-1)).
	Bound float64
	// Stats is the DP work summed over all shard tables (see DPStats).
	Stats DPStats
}

// BuildSharded builds one histogram per shard concurrently (conc bounds
// the fan; each shard's DP additionally parallelizes over pool) and
// merges them under the global bucket budget B. The caller supplies one
// bucket-cost oracle per shard — each over its shard's subdomain only —
// and the global boundaries bounds (len(oracles)+1 entries, as returned
// by shard.Bounds). Shard counts need not be powers of two and shards
// need not be equal; every shard must get at least one bucket, so
// B >= len(oracles).
func BuildSharded(oracles []Oracle, bounds []int, B int, pool *engine.Pool, conc int) (*ShardedResult, error) {
	k := len(oracles)
	if k < 2 {
		return nil, fmt.Errorf("hist: sharded build needs k >= 2 shards, got %d", k)
	}
	if len(bounds) != k+1 {
		return nil, fmt.Errorf("hist: %d boundaries for %d shards, want %d", len(bounds), k, k+1)
	}
	if B < k {
		return nil, fmt.Errorf("hist: sharded build needs budget >= k=%d (one bucket per shard), got %d", k, B)
	}
	comb := oracles[0].Combine()
	for s, o := range oracles {
		if got := o.N(); got != bounds[s+1]-bounds[s] {
			return nil, fmt.Errorf("hist: shard %d oracle spans %d items, boundaries say %d", s, got, bounds[s+1]-bounds[s])
		}
		if o.Combine() != comb {
			return nil, fmt.Errorf("hist: shard %d oracle disagrees on the aggregation rule", s)
		}
	}
	// Shard s can usefully hold up to min(B, n_s) buckets: B because at
	// the bound's reference total B+k-1 the other shards keep one bucket
	// each, n_s because buckets cannot outnumber items.
	caps := make([]int, k)
	for s := range caps {
		caps[s] = min(B, oracles[s].N())
	}
	tables := make([]*DPTable, k)
	err := engine.Fan(k, conc, func(s int) error {
		t, err := RunDPPool(oracles[s], caps[s], pool)
		if err != nil {
			return fmt.Errorf("hist: shard %d: %w", s, err)
		}
		tables[s] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeSharded(tables, bounds, B)
}

// mergeSharded splits the budget B across the completed per-shard tables
// by the exact allocation DP and assembles the result. It is its own
// function so that the tests can merge reference tables the same way.
func mergeSharded(tables []*DPTable, bounds []int, B int) (*ShardedResult, error) {
	k := len(tables)
	caps := make([]int, k)
	var stats DPStats
	for s, t := range tables {
		caps[s] = t.Bmax()
		stats.Add(t.Stats())
	}
	sum := tables[0].oracle.Combine() == Sum
	alloc, err := shard.Allocate(B+k-1, caps, sum, func(s, b int) float64 { return tables[s].Cost(b) })
	if err != nil {
		return nil, err
	}
	split := alloc.Split(B)
	pieces := make([]*Histogram, k)
	for s, b := range split {
		h, err := tables[s].Histogram(b)
		if err != nil {
			return nil, fmt.Errorf("hist: shard %d at %d buckets: %w", s, b, err)
		}
		pieces[s] = h
	}
	merged := &Histogram{N: bounds[k], Cost: alloc.Cost(B)}
	for s, h := range pieces {
		off := bounds[s]
		for _, b := range h.Buckets {
			merged.Buckets = append(merged.Buckets, Bucket{
				Start: b.Start + off, End: b.End + off, Rep: b.Rep, Cost: b.Cost,
			})
		}
	}
	if err := merged.Validate(); err != nil {
		return nil, err
	}
	bound := alloc.Cost(B) - alloc.Cost(B+k-1)
	if bound < 0 {
		bound = 0
	}
	return &ShardedResult{Merged: merged, Bound: bound, Stats: stats}, nil
}
