package hist

import (
	"fmt"

	"probsyn/internal/engine"
	"probsyn/internal/pdata"
)

// LiveDP is a histogram DP table kept live against a mutable value-pdf
// source: the completed opt/choice levels survive the build, and a data
// mutation recomputes only the columns it can have changed.
//
// The DP of Eq. (2) fills column e (one entry per budget level) from
// bucket costs within [0, e] and from columns left of e, so:
//
//   - Append(items) extends the domain by k items and runs exactly the k
//     new suffix columns — O(k·n·B) split reductions instead of the full
//     O(n²·B) — after rebuilding the bucket-cost oracle over the grown
//     data (O(oracle precompute), dominated by the DP at any real size);
//   - Update(i, item) patches item i's pdf and re-runs the columns
//     e >= i: buckets wholly left of i are priced identically by the
//     rebuilt oracle (prefix structures agree bit-for-bit up to the first
//     changed item), so those columns are already correct. The cost is
//     proportional to the domain right of the update — cheap for the
//     hot-tail corrections a serving system absorbs, a full re-DP in the
//     worst case (i = 0).
//
// Determinism: every preserved column holds exactly the values a fresh
// DP over the mutated data would compute, and recomputed columns run the
// same engine schedule — so the maintained table, and every budget's
// extracted histogram, is bit-identical to a from-scratch build at any
// worker count. The live property tests assert this through the codec.
type LiveDP struct {
	vp         *pdata.ValuePDF
	makeOracle func(*pdata.ValuePDF) (Oracle, error)
	breq       int
	pool       *engine.Pool
	tab        *DPTable
}

// NewLiveDP builds the full DP once (exactly as RunDPPool would) and
// retains the state needed to maintain it. makeOracle rebuilds the
// bucket-cost oracle after each mutation; it must be deterministic in its
// input (every oracle in this package is). The source is deep-copied.
func NewLiveDP(vp *pdata.ValuePDF, makeOracle func(*pdata.ValuePDF) (Oracle, error), B int, pool *engine.Pool) (*LiveDP, error) {
	if err := vp.Validate(); err != nil {
		return nil, err
	}
	l := &LiveDP{vp: vp.Clone(), makeOracle: makeOracle, breq: B, pool: pool}
	o, err := makeOracle(l.vp)
	if err != nil {
		return nil, err
	}
	l.tab, err = RunDPPool(o, B, pool)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Table exposes the maintained DP table; it is revalidated in place by
// Append/Update, so callers must not retain it across mutations.
func (l *LiveDP) Table() *DPTable { return l.tab }

// Domain returns the current domain size.
func (l *LiveDP) Domain() int { return l.vp.N }

// Append extends the domain with the given item pdfs and extends the DP
// by the new suffix columns.
func (l *LiveDP) Append(items []pdata.ItemPDF) error {
	if len(items) == 0 {
		return nil
	}
	for k := range items {
		if err := items[k].Validate(); err != nil {
			return fmt.Errorf("hist: append item %d: %w", k, err)
		}
	}
	from := l.vp.N
	for _, it := range items {
		l.vp.Items = append(l.vp.Items, it.Clone())
	}
	l.vp.N = len(l.vp.Items)
	return l.redo(from)
}

// Update replaces item i's pdf and re-runs the DP columns from i.
func (l *LiveDP) Update(i int, item pdata.ItemPDF) error {
	if i < 0 || i >= l.vp.N {
		return fmt.Errorf("hist: update index %d outside domain [0, %d)", i, l.vp.N)
	}
	if err := item.Validate(); err != nil {
		return fmt.Errorf("hist: update item %d: %w", i, err)
	}
	l.vp.Items[i] = item.Clone()
	return l.redo(i)
}

// redo rebuilds the oracle over the mutated source and resumes the DP at
// the first possibly-dirty column.
func (l *LiveDP) redo(from int) error {
	o, err := l.makeOracle(l.vp)
	if err != nil {
		return err
	}
	return l.tab.resume(o, from, l.breq, l.pool, defaultTiles)
}
