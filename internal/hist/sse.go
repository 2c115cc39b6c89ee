package hist

import (
	"cmp"
	"slices"
	"sync"

	"probsyn/internal/intervals"
	"probsyn/internal/numeric"
	"probsyn/internal/pdata"
)

// The SSE family (§3.1). The paper's objective, Eq. (5), prices a bucket at
//
//	SSE(b) = Σ_{i∈b} E[g_i²] − (1/n_b)·E[(Σ_{i∈b} g_i)²],
//
// the expected within-world deviation from the per-world bucket mean. The
// fixed-representative variant prices it at Σ E[g_i²] − (Σ E[g_i])²/n_b,
// the error a stored single representative actually achieves (DESIGN.md
// finding 1); that variant is a Quadratic oracle (NewSSEFixed). Both
// decompose over precomputed prefix arrays.

// SSEValue is the Eq. (5) oracle for the value pdf model, where items are
// independent so E[(Σg)²] = (ΣE[g])² + ΣVar[g] splits item by item.
// Cost queries are O(1) after O(m+n) precomputation (Theorem 1).
type SSEValue struct {
	meanSq numeric.Prefix // Σ E[g²]
	mean   numeric.Prefix // Σ E[g]
	vr     numeric.Prefix // Σ Var[g]
}

// NewSSEValue builds the oracle from a value pdf.
func NewSSEValue(vp *pdata.ValuePDF) *SSEValue {
	mom := pdata.MomentsOf(vp)
	return &SSEValue{
		meanSq: numeric.NewPrefix(mom.MeanSq),
		mean:   numeric.NewPrefix(mom.Mean),
		vr:     numeric.NewPrefix(mom.Var),
	}
}

// N returns the domain size.
func (o *SSEValue) N() int { return o.mean.Len() }

// Combine returns Sum: SSE is cumulative.
func (o *SSEValue) Combine() Combine { return Sum }

// Cost implements Eq. (5) for bucket [s, e].
func (o *SSEValue) Cost(s, e int) (float64, float64) {
	return sseCost(o.meanSq.Range(s, e), o.mean.Range(s, e), o.vr.Range(s, e), e-s+1)
}

// CostsForEnd writes Cost(s, e) for every s <= e, one pass over the
// prefix arrays.
func (o *SSEValue) CostsForEnd(e int, costs, reps []float64) {
	sq, m, vr := o.meanSq.Sums(), o.mean.Sums(), o.vr.Sums()
	sqE, mE, vrE := sq[e+1], m[e+1], vr[e+1]
	reps = reps[:e+1]
	for s := range costs[:e+1] {
		costs[s], reps[s] = sseCost(sqE-sq[s], mE-m[s], vrE-vr[s], e-s+1)
	}
}

// sseCost prices a bucket of n items from its range sums of E[g²], E[g]
// and Var[g].
func sseCost(sq, sum, vr float64, n int) (float64, float64) {
	nb := float64(n)
	cost := sq - (float64(sum*sum)+vr)/nb
	if cost < 0 {
		cost = 0 // differenced prefixes can go an ulp negative
	}
	return cost, sum / nb
}

// SSETuple is the Eq. (5) oracle for the tuple pdf model, where items in
// one bucket are correlated through shared tuples:
//
//	Var[Σ_{i∈b} g_i] = Σ_t P_t(1−P_t) = Σ_t P_t − Q(s,e),
//	P_t = Pr[s ≤ t ≤ e],  Q(s,e) = Σ_t P_t².
//
// Σ_t P_t comes from the prefix array B[e] = Σ_t Pr[t ≤ e]. The paper
// differences a second prefix array for Q, C[e] = Σ_t Pr[t ≤ e]², which is
// right only when no tuple's alternatives straddle the boundary s−1 (always
// true in the basic model; DESIGN.md finding 3). The exact Q is reached two
// ways:
//
//   - CostsForEnd, the DP's way. With a_{t,i} the mass tuple t puts on item
//     i, Q(s,e) = Q(s+1,e) + R_s(e) where R_s(e) = Σ_t a_{t,s}·(a_{t,s} +
//     2·Σ_{s<i≤e} a_{t,i}) is row s of the tuples' Gram matrix summed up to
//     column e. The oracle keeps the one row R_·(e) and moves it from e−1
//     to e with one multiply-add per (earlier item, item e) pair of a
//     tuple; a column of costs is then one running sum down the row. A
//     build pays Σ_t k_t(k_t−1)/2 pair updates and n(n+1)/2 adds for its
//     variance terms, within Theorem 1's O(m + Bn²) whenever tuples have
//     O(1) alternatives.
//   - Cost, random access: C[e]−C[s−1] minus 2·F_t(s−1)·(F_t(e)−F_t(s−1))
//     for each tuple t straddling s−1, located by an interval-tree stab.
//     Nothing the DP runs reads these structures, so they are built by the
//     first Cost call.
type SSETuple struct {
	n      int
	meanSq numeric.Prefix
	cumB   []float64 // cumB[e] = Σ_t Pr[t <= e], index shifted by 1

	// closedForm skips the straddle correction, reproducing the paper's
	// printed formula; kept as the ablation of finding 3.
	closedForm bool

	// The tuples, flat: runs[runOff[t]:runOff[t+1]] is tuple t as
	// pdata.Tuple.AppendRun leaves it (ascending distinct items, merged
	// masses).
	runs   []pdata.Alternative
	runOff []int32

	// The Gram-row sweep. pairs[pairOff[e]:pairOff[e+1]] lists, in tuple
	// order, the run entries at item e that have earlier entries in their
	// run. row[s] = R_s(rowEnd) for s <= rowEnd and diag[s] = Σ_t a_{t,s}²,
	// the row's value before any pair reaches it, beyond. rowMu makes a
	// column one step, so callers on several goroutines cost each other
	// restarts and never a wrong float.
	pairs   []runPair
	pairOff []int32
	diag    []float64
	rowMu   sync.Mutex
	row     []float64
	rowEnd  int

	randomOnce sync.Once
	random     *tupleRandomAccess
}

// runPair is one run entry together with the start of its run:
// runs[from:at] are the entries it pairs with.
type runPair struct{ from, at int32 }

// tupleRandomAccess is what Cost needs and the sweep does not.
type tupleRandomAccess struct {
	cumC []float64       // cumC[e] = Σ_t Pr[t <= e]^2, index shifted by 1
	cum  []float64       // parallel to runs: Pr[t <= runs[p].Item]
	tree *intervals.Tree // per multi-item tuple, the boundaries it straddles
}

// NewSSETuple builds the exact oracle for a tuple pdf.
func NewSSETuple(tp *pdata.TuplePDF) *SSETuple {
	return newSSETuple(tp, false)
}

// NewSSETupleClosedForm builds the oracle using the paper's closed form
// without the straddle correction. It is exact exactly when no tuple's
// alternatives straddle a queried bucket boundary (e.g. the basic model)
// and wrong otherwise; see DESIGN.md finding 3.
func NewSSETupleClosedForm(tp *pdata.TuplePDF) *SSETuple {
	return newSSETuple(tp, true)
}

func newSSETuple(tp *pdata.TuplePDF, closedForm bool) *SSETuple {
	n := tp.N
	o := &SSETuple{
		n:          n,
		closedForm: closedForm,
		runs:       make([]pdata.Alternative, 0, tp.M()),
		runOff:     make([]int32, 1, len(tp.Tuples)+1),
		pairOff:    make([]int32, n+1),
		diag:       make([]float64, n),
		rowEnd:     -1,
	}
	// One pass: the runs, the per-item moments (tuples in input order, as
	// pdata.MomentsOf adds them) and the per-item pair counts.
	mean, meanSq := make([]float64, n), make([]float64, n)
	for k := range tp.Tuples {
		at := len(o.runs)
		o.runs = tp.Tuples[k].AppendRun(o.runs)
		for p, a := range o.runs[at:] {
			mean[a.Item] += a.Prob
			meanSq[a.Item] += a.Prob * (1 - a.Prob) // the variance, until below
			o.diag[a.Item] += a.Prob * a.Prob
			if p > 0 {
				o.pairOff[a.Item+1]++
			}
		}
		o.runOff = append(o.runOff, int32(len(o.runs)))
	}
	for i := range meanSq {
		meanSq[i] += mean[i] * mean[i]
	}
	o.meanSq = numeric.NewPrefix(meanSq)
	o.cumB = numeric.PrefixSums(mean)
	if closedForm {
		return o
	}

	for i := 0; i < n; i++ {
		o.pairOff[i+1] += o.pairOff[i]
	}
	o.pairs = make([]runPair, o.pairOff[n])
	next := append([]int32(nil), o.pairOff[:n]...)
	for t := 0; t+1 < len(o.runOff); t++ {
		from := o.runOff[t]
		for at := from + 1; at < o.runOff[t+1]; at++ {
			item := o.runs[at].Item
			o.pairs[next[item]] = runPair{from: from, at: at}
			next[item]++
		}
	}
	o.row = append([]float64(nil), o.diag...)
	return o
}

// N returns the domain size.
func (o *SSETuple) N() int { return o.n }

// Combine returns Sum.
func (o *SSETuple) Combine() Combine { return Sum }

// randomAccess returns the structures Cost reads, building them on the
// first call.
func (o *SSETuple) randomAccess() *tupleRandomAccess {
	o.randomOnce.Do(func() {
		ra := &tupleRandomAccess{cum: make([]float64, len(o.runs))}
		sq := make([]float64, o.n)
		var ivs []intervals.Interval
		for t := 0; t+1 < len(o.runOff); t++ {
			from, to := int(o.runOff[t]), int(o.runOff[t+1])
			f := 0.0
			for p := from; p < to; p++ {
				g := f + o.runs[p].Prob
				sq[o.runs[p].Item] += g*g - f*f
				ra.cum[p], f = g, g
			}
			if to-from > 1 && !o.closedForm {
				// The tuple can straddle boundaries a in [first, last-1].
				ivs = append(ivs, intervals.Interval{Lo: o.runs[from].Item, Hi: o.runs[to-1].Item - 1, ID: t})
			}
		}
		ra.cumC = numeric.PrefixSums(sq)
		ra.tree = intervals.New(ivs)
		o.random = ra
	})
	return o.random
}

// tupleCDF returns F_t(x) = Pr[t <= x] by binary search over the tuple's
// run.
func (o *SSETuple) tupleCDF(ra *tupleRandomAccess, t, x int) float64 {
	from := int(o.runOff[t])
	// The first entry with item > x.
	k, _ := slices.BinarySearchFunc(o.runs[from:o.runOff[t+1]], x+1,
		func(a pdata.Alternative, item int) int { return cmp.Compare(a.Item, item) })
	if k == 0 {
		return 0
	}
	return ra.cum[from+k-1]
}

// Cost prices bucket [s, e] in O(log m + k·log ℓ) where k is the number of
// tuples straddling the boundary s-1.
func (o *SSETuple) Cost(s, e int) (float64, float64) {
	ra := o.randomAccess()
	nb := float64(e - s + 1)
	esum := o.cumB[e+1] - o.cumB[s]
	sumP2 := ra.cumC[e+1] - ra.cumC[s]
	if s > 0 && !o.closedForm {
		corr := 0.0
		ra.tree.Stab(s-1, func(iv intervals.Interval) bool {
			fa := o.tupleCDF(ra, iv.ID, s-1)
			fb := o.tupleCDF(ra, iv.ID, e)
			corr += fa * (fb - fa)
			return true
		})
		sumP2 -= 2 * corr
	}
	variance := esum - sumP2
	cost := o.meanSq.Range(s, e) - (esum*esum+variance)/nb
	if cost < 0 {
		cost = 0
	}
	return cost, esum / nb
}

// CostsForEnd fills the exact cost of every bucket [s, e] for fixed e: it
// brings the Gram row to column e and sums it from s = e down. The DP asks
// for ends in ascending order and each column then costs its own pairs
// plus e+1 adds. An end behind the row restarts it from the diagonal, so
// the row at column e is always the same sequence of additions and a
// column's floats do not depend on which calls came before.
func (o *SSETuple) CostsForEnd(e int, costs, reps []float64) {
	if o.closedForm {
		// The closed form is already O(1) per query; no sweep needed.
		for s := 0; s <= e; s++ {
			costs[s], reps[s] = o.Cost(s, e)
		}
		return
	}
	o.rowMu.Lock()
	defer o.rowMu.Unlock()
	if e < o.rowEnd {
		copy(o.row, o.diag)
		o.rowEnd = -1
	}
	for o.rowEnd < e {
		o.rowEnd++
		for _, pr := range o.pairs[o.pairOff[o.rowEnd]:o.pairOff[o.rowEnd+1]] {
			a2 := 2 * o.runs[pr.at].Prob
			for _, b := range o.runs[pr.from:pr.at] {
				o.row[b.Item] += a2 * b.Prob
			}
		}
	}
	sumP2 := 0.0
	for s := e; s >= 0; s-- {
		sumP2 += o.row[s]
		nb := float64(e - s + 1)
		esum := o.cumB[e+1] - o.cumB[s]
		cost := o.meanSq.Range(s, e) - (esum*esum+(esum-sumP2))/nb
		if cost < 0 {
			cost = 0
		}
		costs[s], reps[s] = cost, esum/nb
	}
}
