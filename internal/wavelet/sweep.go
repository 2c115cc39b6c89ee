package wavelet

import (
	"errors"
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
// A Sweep reads the Buffers set it was filled into — the DP's per-level
// tables among them — and extraction only reads it, so Synopsis and Cost
// may be called concurrently. Release ends the sweep. For NewSweep's own
// set it puts the set back in the pool for the next NewSweep to refill;
// only a holder of the sole reference that has extracted what it needs
// calls it: a single-budget build (buildAt, probsyn.Build) after its one
// extraction. A live frontier releases the sweep a mutation replaced,
// which only marks it: the set is its own, already refilled. A BuildSweep
// frontier is never released and lives, with its set, until it is
// garbage collected.
type Sweep struct {
	bmax    int
	at      func(b int) *Synopsis
	costAt  func(b int) float64 // budget b's cost without its synopsis; nil: only at(b) knows it
	bound   float64             // additive suboptimality bound; 0 for exact sweeps
	stats   hist.DPStats        // the forward DP's work counters; zero for the SSE greedy
	release func()              // pools NewSweep's set; nil for a caller's set's sweep

	once     sync.Once
	costs    []float64 // costs[b-1], filled by the first Cost call
	released bool
}

// errReleased is what a released sweep answers.
var errReleased = errors.New("wavelet: sweep already released")

// Release puts a NewSweep's set back in the pool; a sweep filled into a
// caller's Buffers set moves no memory. Afterwards Synopsis and Cost
// return an error; Bmax, ErrorBound and Stats still answer. Release must
// not run concurrently with any other method.
func (s *Sweep) Release() {
	if !s.released && s.release != nil {
		s.release()
	}
	s.released = true
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
// empty synopsis's. The only error is a released sweep's.
func (s *Sweep) Cost(b int) (float64, error) {
	switch {
	case s.released:
		return 0, errReleased
	case s.bmax == 0:
		return s.at(0).Cost, nil
	}
	s.once.Do(func() { s.costs = curve(s.bmax, s.at, s.costAt) })
	return s.costs[min(max(b, 1), s.bmax)-1], nil
}

// Synopsis extracts the optimal budget-b synopsis, 1 <= b <= Bmax. A
// zero-budget sweep has the one budget 0: the empty synopsis.
func (s *Sweep) Synopsis(b int) (*Synopsis, error) {
	if s.released {
		return nil, errReleased
	}
	if b > s.bmax || b < min(1, s.bmax) {
		return nil, fmt.Errorf("wavelet: sweep budget %d outside [1, %d]", b, s.bmax)
	}
	return s.at(b), nil
}

// Family selects which wavelet construction a Sweep runs.
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
)

// NewSweep runs the family's one forward pass at budget B and returns the
// whole frontier: every budget b <= B is a backtrack away, bit-identical
// to the family's Build function at budget b, the same q and any worker
// count. pool nil means serial. It is Buffers.Sweep into a set taken from
// a pool of idle sets, and the sweep's Release puts that set back, so a
// single-budget build refills the set the last one released.
func NewSweep(src pdata.Source, family Family, kind metric.Kind, p metric.Params, B, q int, pool *engine.Pool) (*Sweep, error) {
	set := sets.Get().(*Buffers)
	sw, err := set.Sweep(src, family, kind, p, B, q, pool)
	if err != nil {
		set.release()
		return nil, err
	}
	sw.release = set.release
	return sw, nil
}

// sets holds the idle sets of released NewSweeps, process-wide: a build
// without a shared engine pool still finds the set the last one released.
// A sync.Pool drops what it holds at GC, so an idle process retains none
// and there is no retention setting.
var sets = sync.Pool{New: func() any { return new(Buffers) }}

// release drops the set's references to the caller's items and pools it.
// Nothing reads its last sweep again.
func (set *Buffers) release() {
	clear(set.padded.Items[:cap(set.padded.Items)])
	sets.Put(set)
}

// Buffers is the memory a sweep fills and its extractions read: the
// padded items, the point-error tables, the expected frequencies and
// coefficients, the tree DP's level tables, layout, incoming values,
// orders and leaf scratch, and the SSE greedy's coefficients, order,
// ranking scratch and moments. It is the one owner of what a sweep
// writes. Sweep refills it in place, growing an array only when the
// padded domain or the entry count outgrows it, so a holder that sweeps
// again and again (a live frontier, NewSweep's pool) allocates next to
// nothing after the first sweep of each shape.
//
// A sweep reads the set it was filled into until the set is filled
// again: refill a set only once nothing reads its last sweep, or once a
// refused sweep has left it as it was. Such a sweep's Release marks it
// released and moves no memory.
type Buffers struct {
	padded pdata.ValuePDF // the data padded to a power of two, when it is not one
	pe     PointErrors
	work   []float64 // the expected frequencies, then the Haar transform's scratch
	mu     []float64 // the expected coefficients
	dp     dpTables
	sse    sseGreedy
}

// Sweep runs the family's one forward pass at budget B over src in the
// set's memory and returns the frontier, as NewSweep does. The budget,
// the grid size and the tree DP's entry cap are checked before anything
// is written, so a sweep they refuse leaves the set, and the sweep last
// filled into it, as they were; on a validated source they are the only
// refusals. Any other failure (a metric PointErrors does not price, a NaN
// frequency) leaves the set partly rewritten, to be filled again: a sweep
// reads nothing the set held before it.
func (set *Buffers) Sweep(src pdata.Source, family Family, kind metric.Kind, p metric.Params, B, q int, pool *engine.Pool) (*Sweep, error) {
	if B < 0 {
		return nil, fmt.Errorf("wavelet: negative budget %d", B)
	}
	if family == RestrictedFamily && q != 0 && q < 2 {
		return nil, fmt.Errorf("wavelet: the quantized restricted DP needs q = 0 (exact) or q >= 2, got %d", q)
	}
	if family == SSEFamily {
		set.sse.fill(src)
		return set.sse.sweep(B), nil
	}
	q, err := treeQuant(haar.Pow2Ceil(src.Domain()), B, q)
	if err != nil {
		return nil, err
	}
	unpadded := pdata.AsValuePDF(src)
	vp, err := set.fillLeaves(unpadded, kind, p)
	if err != nil {
		return nil, err
	}
	B = min(B, vp.N)
	pe, mu := &set.pe, set.mu
	if vp.N == 1 {
		return extractionSweep(B, func(b int) *Synopsis { return restrictedSingleton(pe, mu[0], b) }), nil
	}
	return newTreeDP(&set.dp, vp.N, unpadded.N, B, mu, pe, kind.Cumulative(), q, pool).sweep(), nil
}

// fillLeaves pads vp and fills what the tree DP reads of the data: the
// point errors and the expected coefficients of the padded domain.
func (set *Buffers) fillLeaves(vp *pdata.ValuePDF, kind metric.Kind, p metric.Params) (*pdata.ValuePDF, error) {
	vp = set.pad(vp)
	if err := set.pe.fill(vp, kind, p); err != nil {
		return nil, err
	}
	set.work = appendExpectedFreqs(set.work[:0], vp)
	set.mu = resize(set.mu, vp.N)
	haar.ForwardInto(set.mu, set.work)
	return vp, nil
}

// buildAt is the single-budget form of NewSweep: the frontier at budget B
// extracted at B (clamped to the padded domain), with its cost.
func buildAt(src pdata.Source, family Family, kind metric.Kind, p metric.Params, B, q int, pool *engine.Pool) (*Synopsis, float64, error) {
	sw, err := NewSweep(src, family, kind, p, B, q, pool)
	if err != nil {
		return nil, 0, err
	}
	syn := sw.at(sw.bmax)
	sw.Release()
	return syn, syn.Cost, nil
}

// sweep wraps the solved tables as a Sweep over every budget up to d.B.
// In quantized mode the table's objective is only approximate, so
// extraction re-evaluates each synopsis exactly (its Cost is the true
// expected error — never below the exact optimum, since the synopsis is
// a feasible exact solution) and the sweep carries the DP's additive
// suboptimality bound.
func (d *treeDP) sweep() *Sweep {
	sw := &Sweep{
		bmax: d.B, bound: d.errorBound(), stats: d.stats,
		at: func(b int) *Synopsis { return d.synopsis(b) },
	}
	if d.quant == 0 {
		sw.costAt = func(b int) float64 { return d.cost(b) }
	}
	return sw
}

// extractionSweep wraps a family whose budget-b cost is only known by
// extracting the budget-b synopsis: the SSE greedy, and the degenerate
// n == 1 domain, where budgets are 0 or 1 and the root's two decisions
// are enumerated directly.
func extractionSweep(B int, at func(b int) *Synopsis) *Sweep {
	return &Sweep{bmax: B, at: at}
}
