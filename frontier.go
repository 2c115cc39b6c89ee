package probsyn

import (
	"fmt"
	"math"

	"probsyn/internal/hist"
	"probsyn/internal/wavelet"
)

// BuildSweep is Build's budget-sweep twin: one DP run at budget Bmax that
// serves the optimal synopsis for every budget 1 <= b <= Bmax through the
// returned Frontier. It accepts the same functional options as Build
// (family, metric parameters, parallelism, shared pool, workload
// weights), holds a single pool admission token for the whole
// construction, and guarantees Frontier.Synopsis(b) is bit-identical —
// byte-identical through the codec — to Build at budget b with the same
// options. The (1+eps)-approximate histogram DP prunes its search per
// budget and produces no frontier; WithEps is rejected.
func BuildSweep(src Source, m Metric, Bmax int, opts ...BuildOption) (Frontier, error) {
	p, err := resolve(src, m, opts, modeFrontier)
	if err != nil {
		return nil, err
	}
	release, err := p.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	fr, err := p.frontier(src, Bmax, nil)
	if err != nil {
		return nil, err
	}
	p.report(fr.Stats())
	return fr, nil
}

// countedFrontier is a frontier that reports its DP's work counters.
type countedFrontier interface {
	Frontier
	Stats() DPStats
}

// histFrontier adapts the histogram DP table (which already holds every
// budget level) to the shared Frontier surface.
type histFrontier struct{ tab *hist.DPTable }

func (f histFrontier) Bmax() int          { return f.tab.Bmax() }
func (f histFrontier) Cost(b int) float64 { return f.tab.Cost(b) }
func (f histFrontier) Stats() DPStats     { return f.tab.Stats() }

func (f histFrontier) Synopsis(b int) (Synopsis, error) {
	if b < 1 || b > f.tab.Bmax() {
		return nil, fmt.Errorf("probsyn: frontier budget %d outside [1, %d]", b, f.tab.Bmax())
	}
	// Return an untyped nil on error: wrapping a nil concrete pointer in
	// the interface would defeat callers' `!= nil` checks.
	h, err := f.tab.Histogram(b)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// waveletFrontier adapts a wavelet sweep — a fresh one, or the one a live
// frontier holds over its current state — to the shared Frontier surface.
// Its promoted ErrorBound reports the additive suboptimality bound of a
// quantized sweep (0 for exact ones); see ApproxBound.
type waveletFrontier struct{ *wavelet.Sweep }

// Cost is the sweep's. Its one error is a released sweep's, and a sweep is
// released only once nothing can reach its frontier: a NaN here is a bug.
func (f waveletFrontier) Cost(b int) float64 {
	c, err := f.Sweep.Cost(b)
	if err != nil {
		return math.NaN()
	}
	return c
}

func (f waveletFrontier) Synopsis(b int) (Synopsis, error) {
	syn, err := f.Sweep.Synopsis(b)
	if err != nil {
		return nil, err
	}
	return syn, nil
}

// ApproxBound returns the additive suboptimality bound of a frontier
// built by an approximate DP: every extracted synopsis's reported cost
// (its exactly-evaluated expected error) is within the bound of the
// exact optimum at that budget. Exact frontiers — and frontier types
// that carry no bound — return 0.
func ApproxBound(f Frontier) float64 {
	if b, ok := f.(interface{ ErrorBound() float64 }); ok {
		return b.ErrorBound()
	}
	return 0
}
