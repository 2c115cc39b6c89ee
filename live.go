package probsyn

import (
	"fmt"
	"sync"

	"probsyn/internal/hist"
	"probsyn/internal/pdata"
	"probsyn/internal/synopsis"
	"probsyn/internal/wavelet"
)

// Maintainer is a live Frontier: the build's dynamic-program state is
// retained, so the frontier can absorb Append/Update mutations of the
// underlying data without a from-scratch rebuild, while every extraction
// stays byte-identical to a fresh BuildSweep over the mutated data. See
// BuildLive.
type Maintainer = synopsis.Maintainer

// BuildLive is BuildSweep's maintainable twin: the same one-DP-serves-
// every-budget frontier, built with the same functional options, but
// returned as a Maintainer whose retained state absorbs data mutations.
//
// Maintenance is defined over the value-pdf model — the one model in
// which "item i's distribution" is an independently replaceable object —
// so the source must be a *ValuePDF (convert other models with their
// induced value-pdf marginals first if that semantics is acceptable).
//
// What a mutation costs:
//
//   - histogram: Append runs only the new suffix columns of the DP;
//     Update re-runs the columns right of the updated item (hot-tail
//     corrections are nearly free, an update at item 0 is a full re-DP).
//   - wavelet, SSE family: every mutation is an O(k log n) coefficient
//     patch plus an O(n) order merge — no re-sort, no moment pass.
//   - wavelet, DP families: mean-preserving corrections repair only the
//     O(log n) dirty-path state blocks; mean-changing mutations re-run
//     the forward sweep over the patched state (the tree's incoming
//     values shift globally — see DESIGN.md "Incremental maintenance").
//
// The determinism contract is unchanged: after any mutation sequence,
// Synopsis(b) is codec-byte-identical to BuildSweep at budget b over the
// final data, at every worker count. The returned Maintainer serializes
// its own mutations and extractions with an internal lock, and each
// mutation holds a pool admission token like any other build.
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
	_, release, err := p.admit(1)
	if err != nil {
		return nil, err
	}
	defer release()
	l := &liveFrontier{plan: p}
	if wf, ok := p.family.wavelet(); ok {
		lv, err := wavelet.NewLive(vp, wf, m, p.params, Bmax, p.q, p.pool)
		if err != nil {
			return nil, err
		}
		// Every mutation re-wraps the sweep, so it is read off the live
		// frontier at every use, not kept.
		l.state, l.view = lv, func() countedFrontier { return waveletFrontier{lv.Sweep} }
	} else {
		lv, err := hist.NewLiveDP(vp, func(v *pdata.ValuePDF) (hist.Oracle, error) { return p.oracle(v, p.weights) }, Bmax, p.pool)
		if err != nil {
			return nil, err
		}
		// The table is revalidated in place by mutations, so it is read
		// off the live DP at every use, not kept.
		l.state, l.view = lv, func() countedFrontier { return histFrontier{lv.Table()} }
	}
	l.reportStats()
	return l, nil
}

// liveFrontier is a plan's frontier plus the retained state behind it:
// the one adapter from a family's maintained DP (hist.LiveDP,
// wavelet.Live — neither safe for concurrent use) to the Maintainer
// surface. It serializes extractions and mutations with its lock, and
// every mutation holds a pool admission token like any other build.
type liveFrontier struct {
	mu    sync.Mutex
	plan  *plan
	state interface {
		Domain() int
		Append(items []pdata.ItemPDF) error
		Update(i int, item pdata.ItemPDF) error
	}
	view func() countedFrontier // the frontier over state's current tables
}

// reportStats refreshes the WithDPStats sink (if any) with the work
// counters of the DP behind the current frontier; called under mu after
// build and mutations.
func (l *liveFrontier) reportStats() {
	l.plan.report(l.view().Stats())
}

func (l *liveFrontier) Bmax() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.view().Bmax()
}

func (l *liveFrontier) Domain() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.Domain()
}

func (l *liveFrontier) Cost(b int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.view().Cost(b)
}

// ErrorBound surfaces the quantized restricted DP's additive
// suboptimality bound under the current data (0 for exact families); see
// ApproxBound.
func (l *liveFrontier) ErrorBound() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ApproxBound(l.view())
}

func (l *liveFrontier) Synopsis(b int) (Synopsis, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.view().Synopsis(b)
}

func (l *liveFrontier) Append(items []pdata.ItemPDF) error {
	if l.plan.weights != nil {
		return fmt.Errorf("probsyn: workload-weighted live histograms cannot Append (no weights for new items); rebuild with an extended weight vector")
	}
	return l.mutate(func() error { return l.state.Append(items) })
}

func (l *liveFrontier) Update(i int, item pdata.ItemPDF) error {
	return l.mutate(func() error { return l.state.Update(i, item) })
}

func (l *liveFrontier) mutate(apply func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, release, err := l.plan.admit(1)
	if err != nil {
		return err
	}
	defer release()
	defer l.reportStats()
	return apply()
}

var _ Maintainer = (*liveFrontier)(nil)
