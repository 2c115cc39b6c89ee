package hist

// Combine is how per-bucket errors aggregate into the histogram objective:
// Sum for the cumulative metrics (SSE, SSRE, SAE, SARE), Max for the
// maximum-error metrics (MAE, MARE). The DP recurrence (Eq. 2) is identical
// up to this choice of h(x,y).
type Combine int

// The two aggregation rules of §2.2.
const (
	Sum Combine = iota
	Max
)

// Oracle prices single buckets under one error objective: Cost returns the
// minimal expected bucket error for the inclusive item range [s, e] together
// with the representative value achieving it. Implementations precompute
// prefix structures so Cost runs in O(1) or O(polylog) time (§3).
//
// Cost must be safe for concurrent calls: ApproximatePool issues them
// from multiple goroutines, and any number of DPs may price through one
// oracle at once. Every oracle in this package satisfies this by
// construction — Cost only reads arrays written at construction time (or,
// for SSETuple, by its first call under a sync.Once). One oracle's arrays
// are rewritten later: a live WeightedAbs's, by its owner's Resume, which
// the live frontier calls under its lock while no DP runs on the oracle.
//
// Cost must be non-negative, exactly, in floats — not just in exact
// arithmetic. Every error metric is a non-negative expectation, but
// differenced prefix sums can cancel below zero by ULPs, so
// implementations clamp at 0 (every oracle in this package does). The
// pruned DP depends on it: skipping a candidate because one side of
// h(prev[i], cost) already reaches the incumbent is only sound when the
// other side cannot be negative.
type Oracle interface {
	// N returns the domain size.
	N() int
	// Combine returns the aggregation rule of the oracle's metric.
	Combine() Combine
	// Cost returns (min expected bucket error, optimal representative)
	// for the bucket spanning items s..e, 0 <= s <= e < N().
	Cost(s, e int) (cost, rep float64)
}

// SweepOracle is the form the exact DP prefers: price every bucket ending
// at e in one pass over the starts, sharing work between neighbours. Three
// kinds of oracle implement it:
//
//   - sweep-only: the exact SSETuple. Its Cost is O(tuples straddling the
//     start) over structures its first call builds; its sweep sums one row
//     of the tuples' Gram matrix (DESIGN.md finding 3), agrees with Cost to
//     rounding, and is what every DP and FromBoundaries price it through
//     (see sweepOnly). Its state is that one row, kept on the oracle:
//     ascending ends, the DP's order, are the fast path, and any order
//     from any goroutine writes the same floats.
//   - sweep-accelerated: WeightedAbs and MaxAbs. Cost is a cold search and
//     stays the definition; the sweep reaches the same answer from the
//     neighbouring bucket's (DESIGN.md finding 4) and writes what
//     Cost(s, e) returns, bit for bit. The independent recomputations
//     (OptimalError, the tests' dense DP) keep pricing through Cost, so
//     that they check the sweep instead of repeating it. Their scratch is
//     local to the call: any number of DPs may sweep one oracle at once.
//   - closed-form columns: SSEValue and Quadratic. Cost is O(1) from prefix
//     arrays; the sweep is one loop down those arrays through the same
//     pricing function, so it writes Cost's floats bit for bit, with no
//     interface call per bucket and no state. A one-level table still
//     prices them through Cost, once per end.
//
// Within one DP, CostsForEnd is called from one goroutine at a time, in
// end order: only the fill row of the DP's tile grid prices buckets, and a
// grid row is a chain — tile q starts after tile q-1 has returned — though
// successive tiles may run on different workers.
type SweepOracle interface {
	Oracle
	// CostsForEnd writes, for each s in [0, e], the cost and optimal
	// representative of bucket [s, e] into costs[s] and reps[s].
	// Both slices have length >= e+1.
	CostsForEnd(e int, costs, reps []float64)
}

// sweepOnly reports whether o can only be priced at scale through its
// sweep (the closed-form ablation's Cost is O(1), so it is not). The
// reference paths consult it, not SweepOracle membership, so that every
// other oracle is re-priced through cold Cost calls.
func sweepOnly(o Oracle) bool {
	t, ok := o.(*SSETuple)
	return ok && !t.closedForm
}
