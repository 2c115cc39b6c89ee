package hist

import (
	"fmt"

	"probsyn/internal/metric"
	"probsyn/internal/minimax"
	"probsyn/internal/pdata"
)

// MaxAbs is the oracle for the maximum-error metrics MAE and MARE (§3.6,
// Theorem 6): the bucket cost is max_{i∈b} f_i(b̂) where
// f_i(t) = Σ_j w_{i,j}|v_j − t| is each item's expected (weighted) absolute
// error — convex piecewise linear with breakpoints at V. The upper envelope
// of convex functions is convex, so:
//
//  1. a binary search over V for the first non-negative forward difference
//     of the envelope finds its grid minimizer V[g], and the continuous
//     minimizer lies within one step of it;
//  2. within a step every f_i is linear, so the min-max over it is a
//     minimize-max-of-lines problem solved exactly by internal/minimax —
//     the paper's "divide-and-conquer over convex hulls" (see refine).
//
// Cost evaluates the envelope at each probed grid point from the bucket's
// items, O(n_b·log|V|); CostsForEnd keeps the whole grid envelope as it
// adds items, O(|V|) per bucket (DESIGN.md finding 4). Unlike the
// cumulative metrics the optimal b̂ may fall strictly between two values
// of V.
type MaxAbs struct {
	kind metric.Kind
	n    int
	vs   pdata.ValueSet
	// itemW[i*k+j] = Σ_{j'<=j} w_{i,j'}; itemS likewise for w·v.
	itemW, itemS []float64
	totW, totS   []float64
}

// NewMaxAbs builds the oracle from a dense pmf table; kind must be
// metric.MAE or metric.MARE.
func NewMaxAbs(tab *pdata.PMFTable, kind metric.Kind, p metric.Params) (*MaxAbs, error) {
	if kind != metric.MAE && kind != metric.MARE {
		return nil, fmt.Errorf("hist: MaxAbs supports MAE/MARE, got %v", kind)
	}
	n, k := tab.N(), tab.VS.Len()
	o := &MaxAbs{
		kind:  kind,
		n:     n,
		vs:    tab.VS,
		itemW: make([]float64, n*k),
		itemS: make([]float64, n*k),
		totW:  make([]float64, n),
		totS:  make([]float64, n),
	}
	mw := make([]float64, k)
	for j := 0; j < k; j++ {
		mw[j] = kind.Weight(tab.VS.Values[j], p)
	}
	for i := 0; i < n; i++ {
		var cw, cs float64
		for j := 0; j < k; j++ {
			w := tab.P[i][j] * mw[j]
			cw += w
			cs += w * tab.VS.Values[j]
			o.itemW[i*k+j] = cw
			o.itemS[i*k+j] = cs
		}
		o.totW[i], o.totS[i] = cw, cs
	}
	return o, nil
}

// N returns the domain size.
func (o *MaxAbs) N() int { return o.n }

// Combine returns Max.
func (o *MaxAbs) Combine() Combine { return Max }

// Kind returns the metric (MAE or MARE) the oracle prices.
func (o *MaxAbs) Kind() metric.Kind { return o.kind }

// lineFor returns item i's error as a line a·t+b valid on the segment
// [V[l], V[l+1]].
func (o *MaxAbs) lineFor(i, l int) minimax.Line {
	k := o.vs.Len()
	return minimax.Line{
		A: 2*o.itemW[i*k+l] - o.totW[i],
		B: o.totS[i] - 2*o.itemS[i*k+l],
	}
}

// itemErrAt evaluates f_i at V[l], the product rounded on its own (as in
// absCost), so the envelope CostsForEnd keeps and the one errAt evaluates
// hold the same floats on every architecture.
func (o *MaxAbs) itemErrAt(i, l int) float64 {
	ln := o.lineFor(i, l)
	return float64(ln.A*o.vs.Values[l]) + ln.B
}

// errAt evaluates the envelope max(0, max_{i∈[s,e]} f_i) at V[l] and, where
// it is positive, names an item attaining it.
func (o *MaxAbs) errAt(l, s, e int) (float64, int) {
	worst, arg := 0.0, s
	for i := s; i <= e; i++ {
		if v := o.itemErrAt(i, l); v > worst {
			worst, arg = v, i
		}
	}
	return worst, arg
}

// gridArgmin returns the canonical grid minimizer of bucket [s, e]'s
// envelope: the index a binary search for the first non-negative forward
// difference ends on. env is the envelope at every grid point if the
// caller has it, nil to evaluate the probed points from the items.
func (o *MaxAbs) gridArgmin(env []float64, s, e int) int {
	l, r := 0, o.vs.Len()-1
	for l < r {
		mid := l + (r-l)/2
		var d float64
		if env != nil {
			d = env[mid+1] - env[mid]
		} else {
			hi, _ := o.errAt(mid+1, s, e)
			lo, _ := o.errAt(mid, s, e)
			d = hi - lo
		}
		if d >= 0 {
			r = mid
		} else {
			l = mid + 1
		}
	}
	return l
}

// refine prices bucket [s, e] given its grid minimizer g, the envelope
// best there and, if best > 0, an item arg attaining it, by solving the
// steps either side of V[g], left then right, and keeping a strictly
// smaller maximum.
// A step is skipped when arg's own line proves its solution cannot be
// smaller: every value the solver returns is at least arg's line there,
// and a line that does not fall towards the step's far end is, anywhere
// in the step, at least what it is at V[g] — exactly so in floats, as
// rounding is monotone. To the right that value is best itself; to the
// left it is the left line's, which rounding may put a hair under best,
// so it is checked. lines is scratch, returned for reuse.
func (o *MaxAbs) refine(g int, best float64, arg, s, e int, lines []minimax.Line) (float64, float64, []minimax.Line) {
	vals := o.vs.Values
	rep := vals[g]
	left, right := g > 0, g+1 < len(vals)
	if best > 0 {
		if left {
			ln := o.lineFor(arg, g-1)
			left = ln.A > 0 || float64(ln.A*vals[g])+ln.B < best
		}
		right = right && o.lineFor(arg, g).A < 0
	}
	for side, solve := range [2]bool{left, right} {
		if !solve {
			continue
		}
		seg := g - 1 + side
		lines = lines[:0]
		for i := s; i <= e; i++ {
			lines = append(lines, o.lineFor(i, seg))
		}
		if x, y := minimax.MinimizeMax(lines, vals[seg], vals[seg+1]); y < best {
			best, rep = y, x
		}
	}
	if best < 0 {
		best = 0
	}
	return best, rep, lines
}

// Cost prices bucket [s, e]; the representative may be fractional.
func (o *MaxAbs) Cost(s, e int) (float64, float64) {
	g := o.gridArgmin(nil, s, e)
	best, arg := o.errAt(g, s, e)
	cost, rep, _ := o.refine(g, best, arg, s, e, nil)
	return cost, rep
}

// CostsForEnd prices every bucket ending at e, s = e down to 0. The
// envelope at every grid point (and an item attaining it) is kept as the
// items are added — a maximum, so the same floats Cost computes whatever
// the order — and each bucket then runs Cost's own search and refinement
// on it. All state is local to the call.
func (o *MaxAbs) CostsForEnd(e int, costs, reps []float64) {
	k := o.vs.Len()
	env := make([]float64, k)
	arg := make([]int, k)
	lines := make([]minimax.Line, 0, e+1)
	for s := e; s >= 0; s-- {
		for l := range env {
			if v := o.itemErrAt(s, l); v > env[l] {
				env[l], arg[l] = v, s
			}
		}
		g := o.gridArgmin(env, s, e)
		costs[s], reps[s], lines = o.refine(g, env[g], arg[g], s, e, lines)
	}
}
