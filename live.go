package probsyn

import (
	"fmt"
	"sync"

	"probsyn/internal/hist"
	"probsyn/internal/pdata"
	"probsyn/internal/synopsis"
	"probsyn/internal/wavelet"
)

// Maintainer is a live Frontier: it absorbs Append/Update mutations of the
// underlying data, and every extraction stays byte-identical to a fresh
// BuildSweep over the mutated data. See BuildLive.
type Maintainer = synopsis.Maintainer

// BuildLive is BuildSweep's maintainable twin: the same one-DP-serves-
// every-budget frontier, built with the same functional options, but
// returned as a Maintainer that absorbs data mutations.
//
// Maintenance is defined over the value-pdf model — the one model in
// which "item i's distribution" is an independently replaceable object —
// so the source must be a *ValuePDF (convert other models with their
// induced value-pdf marginals first if that semantics is acceptable).
//
// What a mutation costs:
//
//   - histogram: the retained DP table resumes at the first column the
//     mutation can have changed. Append runs only the new suffix columns;
//     Update re-runs the columns right of the updated item (hot-tail
//     corrections are nearly free, an update at item 0 is a full re-DP).
//     The table's rows grow in place, with headroom. An SAE/SARE oracle
//     resumes in place too: it rewrites its table rows past the change
//     (past the checkpoint at most 63 rows before it), so an append costs
//     the new rows and allocates next to nothing. A mutation that adds a
//     value to its grid, or drops one, refills the table whole, in the
//     same memory. Every other oracle is rebuilt over the mutated data, in
//     O(n) or in less time than its DP.
//   - wavelet: one fresh sweep over the mutated data, BuildSweep's work
//     for every mutation. An update that keeps the item's mean (a pdf
//     replaced by one with the same expectation) pays it too; DESIGN.md
//     "Incremental maintenance" says why no wavelet state is retained.
//     The sweep refills the frontier's one set of point errors,
//     coefficients and level tables in place, so a mutation allocates
//     next to nothing once the set has the padded domain's shape. The
//     one refusal a sweep of validated data can meet, the DP's state
//     cap, is checked before the set is written. The sweep
//     costs about the items the data holds, not the power of two it is
//     padded to: the padding's all-zero subtrees are priced in closed
//     form, so an append past a power of two (512 items to 516) does not
//     double it.
//
// The determinism contract is unchanged: after any mutation sequence,
// Synopsis(b) is codec-byte-identical to BuildSweep at budget b over the
// final data, at every worker count. The returned Maintainer serializes
// its own mutations and extractions with an internal lock, each mutation
// holds a pool admission token like any other build, and the WithDPStats
// sink holds the work of the build and of every mutation since. A
// rejected mutation changes nothing: Domain, Bmax and every synopsis stay
// as they were.
//
// The (1+eps)-approximate DP has no frontier (WithEps is rejected), and
// workload-weighted histograms reject Append — the weight vector is
// per-item and there is no ground truth for new items' weights.
func BuildLive(src Source, m Metric, Bmax int, opts ...BuildOption) (Maintainer, error) {
	p, err := resolve(src, m, opts, modeFrontier)
	if err != nil {
		return nil, err
	}
	vp, ok := src.(*pdata.ValuePDF)
	if !ok {
		return nil, fmt.Errorf("probsyn: live maintenance is defined over the value-pdf model; got %T (build from the induced value pdf if marginal semantics suffice)", src)
	}
	release, err := p.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	l := &liveFrontier{plan: p, bmax: Bmax, vp: vp.Clone()}
	if _, ok := p.family.wavelet(); ok {
		l.set = new(wavelet.Buffers)
	}
	if err := l.refresh(0, nil); err != nil {
		return nil, err
	}
	l.reportStats()
	return l, nil
}

// liveFrontier is a plan's frontier plus the data behind it: the one copy
// of the data every mutation is validated against and applied to, once,
// for either family. It serializes extractions and mutations with its
// lock, and every mutation holds a pool admission token like any other
// build.
type liveFrontier struct {
	mu    sync.Mutex
	plan  *plan
	bmax  int             // the requested budget, before domain clamping
	vp    *pdata.ValuePDF // the current data
	cur   countedFrontier // the frontier over vp
	spent DPStats         // the work of the wavelet sweeps cur replaced
	// A wavelet family's sweep memory: cur reads it, and the next sweep
	// refills it. A sweep the entry cap refuses writes none of it, so a
	// refused mutation leaves cur and set as they were.
	set *wavelet.Buffers
}

// refresh builds the frontier over vp (with no frontier yet), or brings
// it up to date with vp, whose items from `from` on changed, replaced
// holding the items the mutation overwrote: a histogram resumes its
// oracle, or rebuilds it, and resumes its table at column from; a wavelet
// family sweeps the whole data afresh, in the set's memory.
func (l *liveFrontier) refresh(from int, replaced []pdata.ItemPDF) error {
	p := l.plan
	if h, ok := l.cur.(histFrontier); ok {
		o := h.tab.Oracle()
		if r, ok := o.(*hist.WeightedAbs); ok {
			// Under mu, with no DP running: the table reads the oracle
			// only inside its own Resume. Whatever the table's Resume
			// would refuse, the oracle's refuses first, unwritten.
			if err := r.Resume(l.vp, from, replaced); err != nil {
				return err
			}
		} else {
			var err error
			if o, err = p.oracle(l.vp); err != nil {
				return err
			}
		}
		// The table is revalidated in place: cur already reads it.
		return h.tab.Resume(o, from, p.pool)
	}
	fr, err := p.frontier(l.vp, l.bmax, l.set)
	if err != nil {
		return err
	}
	if l.cur != nil {
		l.spent.Add(l.cur.Stats())
		// Every extraction holds mu, as the caller does: nothing reads the
		// replaced sweep, whose set fr refilled, again.
		l.cur.(waveletFrontier).Release()
	}
	l.cur = fr
	return nil
}

// reportStats refreshes the WithDPStats sink (if any) with the work
// counters of every DP run since the build; called under mu. A histogram
// table's own counters are cumulative already.
func (l *liveFrontier) reportStats() {
	st := l.spent
	st.Add(l.cur.Stats())
	l.plan.report(st)
}

func (l *liveFrontier) Bmax() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur.Bmax()
}

func (l *liveFrontier) Domain() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.vp.N
}

func (l *liveFrontier) Cost(b int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur.Cost(b)
}

// ErrorBound surfaces the quantized restricted DP's additive
// suboptimality bound under the current data (0 for exact families); see
// ApproxBound.
func (l *liveFrontier) ErrorBound() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ApproxBound(l.cur)
}

func (l *liveFrontier) Synopsis(b int) (Synopsis, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur.Synopsis(b)
}

func (l *liveFrontier) Append(items []pdata.ItemPDF) error {
	if l.plan.weights != nil {
		return fmt.Errorf("probsyn: workload-weighted live histograms cannot Append (no weights for new items); rebuild with an extended weight vector")
	}
	for k := range items {
		if err := items[k].Validate(); err != nil {
			return fmt.Errorf("probsyn: append item %d: %w", k, err)
		}
	}
	if len(items) == 0 {
		return nil
	}
	return l.mutate(func() (int, []pdata.ItemPDF, func(), error) {
		n := l.vp.N
		for _, it := range items {
			l.vp.Items = append(l.vp.Items, it.Clone())
		}
		l.vp.N = len(l.vp.Items)
		return n, nil, func() { l.vp.Items, l.vp.N = l.vp.Items[:n], n }, nil
	})
}

func (l *liveFrontier) Update(i int, item pdata.ItemPDF) error {
	if err := item.Validate(); err != nil {
		return fmt.Errorf("probsyn: update item %d: %w", i, err)
	}
	return l.mutate(func() (int, []pdata.ItemPDF, func(), error) {
		if i < 0 || i >= l.vp.N {
			return 0, nil, nil, fmt.Errorf("probsyn: update index %d outside domain [0, %d)", i, l.vp.N)
		}
		old := l.vp.Items[i]
		l.vp.Items[i] = item.Clone()
		return i, []pdata.ItemPDF{old}, func() { l.vp.Items[i] = old }, nil
	})
}

// mutate runs one mutation under the lock and a build token. apply
// changes vp and returns the first item it changed, the items it
// overwrote from there, and how to revert the change; a frontier that
// cannot follow the mutated data (a wavelet DP's entry cap, say) has it
// reverted, so a rejected mutation leaves the data as the frontier still
// describes it.
func (l *liveFrontier) mutate(apply func() (from int, replaced []pdata.ItemPDF, undo func(), err error)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	release, err := l.plan.admit()
	if err != nil {
		return err
	}
	defer release()
	from, replaced, undo, err := apply()
	if err != nil {
		return err
	}
	if err := l.refresh(from, replaced); err != nil {
		undo()
		return err
	}
	l.reportStats()
	return nil
}

var _ Maintainer = (*liveFrontier)(nil)
