package wavelet

import (
	"fmt"
	"sync"

	"probsyn/internal/engine"
	"probsyn/internal/haar"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
)

// Sweep is a completed budget frontier: one forward DP (or one greedy
// ordering, for the SSE family) answering the optimal cost and synopsis
// for every coefficient budget 1 <= b <= Bmax. Extraction re-derives the
// budget-b backtrack from the kept level tables, performing exactly the
// operations an independent budget-b build would — so Synopsis(b) is
// bit-identical (coefficients, values, and Cost) to building at budget b
// directly, and a whole cost-vs-budget frontier (the paper's Figure 2/4
// x-axes) costs one build instead of Bmax.
//
// A Sweep retains the DP's per-level tables until it is garbage
// collected; extraction only reads them, so Synopsis and Cost may be
// called concurrently.
type Sweep struct {
	bmax   int
	at     func(b int) *Synopsis
	costAt func(b int) float64 // budget b's cost without its synopsis; nil: only at(b) knows it
	bound  float64             // additive suboptimality bound; 0 for exact sweeps
	stats  hist.DPStats        // the forward DP's work counters; zero for the SSE greedy

	once  sync.Once
	costs []float64 // costs[b-1], filled by the first Cost call
}

// curve prices every budget 1..bmax of a frontier: by costAt where the
// family reads a cost off its tables (the exact tree DP), else by
// extracting each synopsis — the SSE greedy, the n == 1 domain, and the
// quantized DP, whose frontier reports exactly re-evaluated costs. Only
// callers that ask for the curve pay for it; a single build never does.
func curve(bmax int, at func(b int) *Synopsis, costAt func(b int) float64) []float64 {
	costs := make([]float64, bmax)
	for b := 1; b <= bmax; b++ {
		if costAt != nil {
			costs[b-1] = costAt(b)
		} else {
			costs[b-1] = at(b).Cost
		}
	}
	return costs
}

// Stats returns the forward DP's work counters (see treeDP.stats); zero
// for the SSE greedy and the n == 1 domain, which run no DP.
func (s *Sweep) Stats() hist.DPStats { return s.stats }

// Bmax returns the largest budget the sweep covers (the build budget,
// clamped to the padded domain size).
func (s *Sweep) Bmax() int { return s.bmax }

// ErrorBound returns the additive suboptimality bound of a quantized
// sweep: every extracted synopsis's expected error (its Cost, evaluated
// exactly) is within ErrorBound of the exact optimum at that budget.
// Exact sweeps return 0.
func (s *Sweep) ErrorBound() float64 { return s.bound }

// Cost returns the optimal expected error at budget b (clamped to
// [1, Bmax]), without materializing the synopsis. A zero-budget sweep
// (Bmax 0, possible when the requested budget was 0) has one cost: the
// empty synopsis's.
func (s *Sweep) Cost(b int) float64 {
	if s.bmax == 0 {
		return s.at(0).Cost
	}
	s.once.Do(func() { s.costs = curve(s.bmax, s.at, s.costAt) })
	return s.costs[min(max(b, 1), s.bmax)-1]
}

// Synopsis extracts the optimal budget-b synopsis, 1 <= b <= Bmax. A
// zero-budget sweep has the one budget 0: the empty synopsis.
func (s *Sweep) Synopsis(b int) (*Synopsis, error) {
	if b > s.bmax || b < min(1, s.bmax) {
		return nil, fmt.Errorf("wavelet: sweep budget %d outside [1, %d]", b, s.bmax)
	}
	return s.at(b), nil
}

// Family selects which wavelet construction a Sweep or a Live frontier
// runs.
type Family int

const (
	// SSEFamily is the greedy SSE-optimal build (Theorem 7): the magnitude
	// order of the expected normalized coefficients, of which budget b
	// keeps the first b. It ignores metric, q and pool.
	SSEFamily Family = iota
	// RestrictedFamily is the restricted coefficient-tree DP (Theorem 8):
	// exact when q is 0; with q >= 2, incoming values are quantized onto
	// per-node grids of q points (§4.2's bound-and-quantize argument),
	// capping the state space at O(n·q·B) so domains far beyond the exact
	// DP's reach build in seconds. Every synopsis of a quantized sweep
	// carries its exactly-evaluated expected error as Cost, and ErrorBound
	// bounds the gap to the exact optimum; q at least half the padded
	// domain size degenerates to the exact DP.
	RestrictedFamily
	// UnrestrictedFamily is the unrestricted DP over candidate grids of 2q
	// points per coefficient (§4.2 sketch; see BuildUnrestrictedPool).
	UnrestrictedFamily
)

// checkQuant validates a family's q.
func checkQuant(family Family, q int) error {
	switch {
	case family == UnrestrictedFamily && q < 0:
		return fmt.Errorf("wavelet: negative quantization %d", q)
	case family == RestrictedFamily && q != 0 && q < 2:
		return fmt.Errorf("wavelet: the quantized restricted DP needs q = 0 (exact) or q >= 2, got %d", q)
	}
	return nil
}

// NewSweep runs the family's one forward pass at budget B and returns the
// whole frontier: every budget b <= B is a backtrack away, bit-identical
// to the family's Build function at budget b, the same q and any worker
// count. pool nil means serial.
func NewSweep(src pdata.Source, family Family, kind metric.Kind, p metric.Params, B, q int, pool *engine.Pool) (*Sweep, error) {
	if B < 0 {
		return nil, fmt.Errorf("wavelet: negative budget %d", B)
	}
	if err := checkQuant(family, q); err != nil {
		return nil, err
	}
	if family == SSEFamily {
		return newSSEGreedy(src).sweep(B), nil
	}
	sw, _, err := sweepDP(src, family, kind, p, B, q, false, pool)
	return sw, err
}

// buildAt is the single-budget form of NewSweep: the frontier at budget B
// extracted at B (clamped to the padded domain), with its cost.
func buildAt(src pdata.Source, family Family, kind metric.Kind, p metric.Params, B, q int, pool *engine.Pool) (*Synopsis, float64, error) {
	sw, err := NewSweep(src, family, kind, p, B, q, pool)
	if err != nil {
		return nil, 0, err
	}
	syn := sw.at(sw.bmax)
	return syn, syn.Cost, nil
}

// sweepDP is the frontier of a coefficient-tree DP family, with the
// sharded merge's two extras: forced (restricted family only) pins the
// root coefficient retained at its expected value (one budget unit spent
// on c0, the rest optimized over the details — the per-shard sweeps of a
// sharded build, whose local c0 must survive into the merged synopsis),
// and the PointErrors is returned so the sharded bound can price
// reconstruction slack without rebuilding it.
func sweepDP(src pdata.Source, family Family, kind metric.Kind, p metric.Params, B, q int, forced bool, pool *engine.Pool) (*Sweep, *PointErrors, error) {
	if forced && B < 1 {
		return nil, nil, fmt.Errorf("wavelet: forced-root sweep needs budget >= 1, got %d", B)
	}
	vp := padValuePDF(pdata.AsValuePDF(src))
	pe, cands, quant, err := dpInputs(vp, family, kind, p, q)
	if err != nil {
		return nil, nil, err
	}
	B = min(B, vp.N)
	if vp.N == 1 {
		at := func(b int) *Synopsis { return singleton(family, pe, cands[0], b) }
		if forced {
			at = func(int) *Synopsis { return restrictedSingletonForced(pe, cands[0][0]) }
		}
		return extractionSweep(B, at), pe, nil
	}
	d, err := newTreeDP(vp.N, B, cands, pe, kind.Cumulative(), quant, pool)
	if err != nil {
		return nil, nil, err
	}
	return d.sweep(forced), pe, nil
}

// dpInputs derives what a coefficient-tree DP runs on from a padded value
// pdf: the point-error evaluator, the family's per-coefficient candidate
// values, and the incoming-value quantization the tree sees — the
// unrestricted family spends q on its candidate grids, so its incoming
// values stay exact.
func dpInputs(vp *pdata.ValuePDF, family Family, kind metric.Kind, p metric.Params, q int) (*PointErrors, [][]float64, int, error) {
	pe, err := NewPointErrors(vp, kind, p)
	if err != nil {
		return nil, nil, 0, err
	}
	cands := candidates(family, vp, haar.Forward(vp.ExpectedFreqs()), q)
	if family == UnrestrictedFamily {
		q = 0
	}
	return pe, cands, q, nil
}

// candidates builds a DP family's per-coefficient candidate values over
// the expected coefficients cvals. The restricted problem is the shared
// tree DP with a single candidate per coefficient: its expected value.
func candidates(family Family, vp *pdata.ValuePDF, cvals []float64, q int) [][]float64 {
	if family == UnrestrictedFamily {
		return candidateGrids(vp, cvals, q)
	}
	cands := make([][]float64, len(cvals))
	for j := range cands {
		cands[j] = cvals[j : j+1]
	}
	return cands
}

// singleton solves the degenerate n == 1 domain at budget b, where each
// family enumerates the root's candidates directly.
func singleton(family Family, pe *PointErrors, cands []float64, b int) *Synopsis {
	if family == UnrestrictedFamily {
		return unrestrictedSingleton(pe, cands, b)
	}
	return restrictedSingleton(pe, cands[0], b)
}

// sweep wraps the solved tables as a Sweep over every budget up to d.B
// (root-retaining extractions when forced). In quantized mode the table's
// objective is only approximate, so extraction re-evaluates each synopsis
// exactly (its Cost is the true expected error — never below the exact
// optimum, since the synopsis is a feasible exact solution) and the sweep
// carries the DP's additive suboptimality bound.
func (d *treeDP) sweep(forced bool) *Sweep {
	sw := &Sweep{
		bmax: d.B, bound: d.errorBound(), stats: d.stats,
		at: func(b int) *Synopsis { return d.synopsis(b, forced) },
	}
	if d.quant == 0 {
		sw.costAt = func(b int) float64 { return d.cost(b, forced) }
	}
	return sw
}

// extractionSweep wraps a family whose budget-b cost is only known by
// extracting the budget-b synopsis: the SSE greedy, and the degenerate
// n == 1 domain, where budgets are 0 or 1 and each family enumerates its
// candidates directly.
func extractionSweep(B int, at func(b int) *Synopsis) *Sweep {
	return &Sweep{bmax: B, at: at}
}
