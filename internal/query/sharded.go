package query

import "fmt"

// ShardedQuerier composes the k piece queriers of a sharded build into
// one querier over the global domain: estimates route to the single
// owning piece, range sums split at the shard boundaries and sum the
// pieces' partials in shard order. It is the query-side twin of
// probsyn.BuildSharded's Pieces — catalog.Resolve assembles one per
// sharded key, for every read path, and then answers at the usual
// querier speed.
type ShardedQuerier struct {
	pieces []Querier
	bounds []int // k+1 global boundaries; piece s covers [bounds[s], bounds[s+1])
}

// NewSharded builds the composite querier over pieces in shard order.
// The global boundaries are the running sum of the pieces' own domains —
// the pieces of a build tile its domain, so no other cut is possible.
func NewSharded(pieces []Querier) (*ShardedQuerier, error) {
	if len(pieces) == 0 {
		return nil, fmt.Errorf("query: sharded querier needs at least one piece")
	}
	bounds := make([]int, len(pieces)+1)
	for s, p := range pieces {
		if p == nil {
			return nil, fmt.Errorf("query: piece %d is nil", s)
		}
		if p.Domain() < 1 {
			return nil, fmt.Errorf("query: piece %d has empty domain %d", s, p.Domain())
		}
		bounds[s+1] = bounds[s] + p.Domain()
	}
	return &ShardedQuerier{pieces: pieces, bounds: bounds}, nil
}

// Domain returns the global domain size the pieces tile.
func (q *ShardedQuerier) Domain() int { return q.bounds[len(q.pieces)] }

// shardOf returns the piece owning global item i (i must be in domain).
func (q *ShardedQuerier) shardOf(i int) int {
	// Binary search over the k+1 boundaries.
	lo, hi := 0, len(q.pieces)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if q.bounds[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Estimate routes to the owning piece (out-of-domain items clamp, as in
// the concrete queriers' contract).
func (q *ShardedQuerier) Estimate(i int) float64 {
	n := q.Domain()
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	s := q.shardOf(i)
	return q.pieces[s].Estimate(i - q.bounds[s])
}

// RangeSum splits the inclusive global range [lo, hi] at the shard
// boundaries and sums the pieces' partial sums; out-of-domain ends are
// clamped.
func (q *ShardedQuerier) RangeSum(lo, hi int) float64 {
	n := q.Domain()
	lo, hi = max(lo, 0), min(hi, n-1)
	if lo > hi {
		return 0
	}
	sum := 0.0
	for s := q.shardOf(lo); s < len(q.pieces) && q.bounds[s] <= hi; s++ {
		llo := max(lo, q.bounds[s]) - q.bounds[s]
		lhi := min(hi, q.bounds[s+1]-1) - q.bounds[s]
		sum += q.pieces[s].RangeSum(llo, lhi)
	}
	return sum
}
