package hist

import "probsyn/internal/engine"

// LiveDP is a histogram DP table kept live against mutations of its data:
// the completed opt/choice levels survive the build, and after a mutation
// only the columns it can have changed are recomputed. The caller owns the
// data, applies each mutation to it and hands Resume the bucket-cost
// oracle rebuilt over the result.
//
// The DP of Eq. (2) fills column e (one entry per budget level) from
// bucket costs within [0, e] and from columns left of e, so:
//
//   - an append of k items runs exactly the k new suffix columns —
//     O(k·n·B) split reductions instead of the full O(n²·B) — after the
//     oracle rebuild (O(oracle precompute), dominated by the DP at any
//     real size);
//   - an update of item i re-runs the columns e >= i: buckets wholly left
//     of i are priced identically by the rebuilt oracle (prefix structures
//     agree bit-for-bit up to the first changed item), so those columns are
//     already correct. The cost is proportional to the domain right of the
//     update — cheap for the hot-tail corrections a serving system
//     absorbs, a full re-DP in the worst case (i = 0).
//
// Determinism: every preserved column holds exactly the values a fresh
// DP over the mutated data would compute, and recomputed columns run the
// same engine schedule — so the maintained table, and every budget's
// extracted histogram, is bit-identical to a from-scratch build at any
// worker count. The live property tests assert this through the codec.
type LiveDP struct {
	breq int
	pool *engine.Pool
	tab  *DPTable
}

// NewLiveDP builds the full DP over o once (exactly as RunDPPool would)
// and retains it for Resume.
func NewLiveDP(o Oracle, B int, pool *engine.Pool) (*LiveDP, error) {
	tab, err := RunDPPool(o, B, pool)
	if err != nil {
		return nil, err
	}
	return &LiveDP{breq: B, pool: pool, tab: tab}, nil
}

// Table exposes the maintained DP table; it is revalidated in place by
// Resume, so callers must not retain it across mutations.
func (l *LiveDP) Table() *DPTable { return l.tab }

// Resume re-anchors the table on o, the oracle over the mutated data, and
// recomputes every column from `from` — the first item the mutation
// changed, or the old domain size for an append — rightward.
func (l *LiveDP) Resume(o Oracle, from int) error {
	return l.tab.resume(o, from, l.breq, l.pool, defaultTiles)
}
