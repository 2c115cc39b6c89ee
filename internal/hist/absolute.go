package hist

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"probsyn/internal/metric"
	"probsyn/internal/numeric"
	"probsyn/internal/pdata"
)

// WeightedAbs is the shared oracle for the weighted-absolute-error metrics
// SAE and SARE (§3.3–3.4, Theorems 3–4). With per-item, per-value weights
// w_{i,j} = Pr[g_i = v_j]·mw(v_j) (mw = 1 for SAE, 1/max(c,v) for SARE),
// the bucket cost at representative t is
//
//	Σ_{i∈b} Σ_j w_{i,j}·|v_j − t|
//	  = t·(2·W≤(t) − W) − 2·S≤(t) + S,
//
// where W≤/S≤ cumulate weights and weight·value up to t and W/S are their
// totals. The optimum lies at some v_ℓ ∈ V (the paper's argument: the cost
// is piecewise linear in t with breakpoints at V, and its slope
// 2·W≤(v_ℓ) − W past v_ℓ changes sign once). The representative is the ℓ
// a binary search on the sign of the clamped forward difference returns
// (DESIGN.md finding 4): Cost runs that search, O(log|V|) per bucket;
// CostsForEnd walks to the same ℓ from the neighbouring bucket's.
// Precomputation stores, for every ℓ, item-prefix sums of W≤ and S≤:
// O(|V|·n) space.
//
// The table is item-prefix sums, so a change at item i leaves rows 0..i
// as they were: the oracle follows mutations of its data by rewriting the
// rows past the change (Resume).
type WeightedAbs struct {
	kind metric.Kind
	n    int
	vs   pdata.ValueSet
	mw   []float64 // mw[ℓ] = mw(V[ℓ])
	// tab is item-major, W≤ and S≤ interleaved: row i (2·|V| floats) holds
	// tab[2·(i·|V|+ℓ)] = Σ_{i'<i} W≤(i', ℓ) and, one slot on, the same sum
	// of S≤. A bucket [s, e] reads rows s and e+1 only, and its search
	// probes neighbouring ℓ of both.
	tab []float64
	// tw, ts: item-prefix sums of the per-item totals.
	tw, ts numeric.Prefix
	// margin[2g] and margin[2g+1] are how far below and above zero the
	// slopes before and past V[g] must be for rounding to have no say in
	// the binary search that ends on g; see CostsForEnd.
	margin []float64
	// ref and sums are where the fill stands after row n (see fill), so
	// that an append continues it exactly: ref[2ℓ] and ref[2ℓ+1] are the
	// compensated references of column ℓ's W≤ and S≤ sums.
	ref  []numeric.Accumulator
	sums absSums
	live *absLive // nil: filled from a raw pmf table, which cannot resume
}

// absSums are the fill's running measures after some rows: the magnitudes
// the margins scale with, the largest disagreements of the table and of
// the row totals with their compensated references, and the accumulators
// of tw and ts.
type absSums struct {
	sumW, sumS, errW, errS, errTotW, errTotS float64
	accW, accS                               numeric.Accumulator
}

// absLive is what the oracle keeps to follow its data.
type absLive struct {
	p metric.Params
	// holders[ℓ] counts the entries of the data that list V[ℓ]; negZeros
	// counts those listing a negative zero.
	holders  []int32
	negZeros int
	// Checkpoint c is the fill's state after row c·ckRows: references
	// ckRef[2|V|·c : 2|V|·(c+1)], measures ckSums[c]. An update restarts
	// the fill from the one at or before it.
	ckRef  []numeric.Accumulator
	ckSums []absSums
	row    []float64 // the pmf row of the item being filled
	added  []float64 // the frequencies a mutation lists that V lacks
}

// ckRows is the spacing of the oracle's checkpoints: an update refills
// at most ckRows-1 rows it did not change, and the checkpoints hold
// 2/ckRows of the table's floats.
const ckRows = 64

// NewWeightedAbs builds the oracle over vp; kind must be metric.SAE or
// metric.SARE. It never builds the n×|V| pmf table: each item's row is made
// in one reused scratch row. The oracle keeps what Resume needs to follow
// mutations of vp: holder counts, taken from where each row places its
// entries, and a checkpoint every ckRows rows.
func NewWeightedAbs(vp *pdata.ValuePDF, kind metric.Kind, p metric.Params) (*WeightedAbs, error) {
	vs := pdata.Support(vp)
	o, err := newWeightedAbs(vs, vp.N, kind, p)
	if err != nil {
		return nil, err
	}
	lv := &absLive{p: p, holders: make([]int32, vs.Len()), row: make([]float64, vs.Len())}
	o.live = lv
	o.fill(0, vp.N, o.liveRows(vp, lv.holders))
	for i := range vp.Items {
		lv.negZeros += negZeros(&vp.Items[i])
	}
	return o, nil
}

// newWeightedAbs allocates an oracle over n items and grid vs, row 0 of
// its table zero and its fill at the start.
func newWeightedAbs(vs pdata.ValueSet, n int, kind metric.Kind, p metric.Params) (*WeightedAbs, error) {
	if kind != metric.SAE && kind != metric.SARE {
		return nil, fmt.Errorf("hist: WeightedAbs supports SAE/SARE, got %v", kind)
	}
	k := vs.Len()
	o := &WeightedAbs{
		kind: kind,
		vs:   vs,
		mw:   make([]float64, k),
		tab:  make([]float64, 2*k*(n+1)),
		ref:  make([]numeric.Accumulator, 2*k),
	}
	o.setWeights(p)
	return o, nil
}

// setWeights writes mw over the current grid.
func (o *WeightedAbs) setWeights(p metric.Params) {
	for j, v := range o.vs.Values {
		o.mw[j] = o.kind.Weight(v, p)
	}
}

// liveRows returns the fill's row source over vp: item i's pmf row, made
// in the scratch row, counting its entries into holders when that is not
// nil.
func (o *WeightedAbs) liveRows(vp *pdata.ValuePDF, holders []int32) func(int) []float64 {
	row := o.live.row
	return func(i int) []float64 {
		if f, ok := o.vs.PMFRow(row, &vp.Items[i], holders); !ok {
			// Resume puts every listed frequency on the grid first.
			panic(fmt.Sprintf("hist: live grid lacks frequency %v of item %d", f, i))
		}
		return row
	}
}

// fill is the one fill loop, a build's and every resume's: it writes
// table rows start+1..n and the tw/ts entries past start from the pmf
// rows of items start..n-1, continuing from o.ref and o.sums, which must
// stand after row start, and then sets the margins. An oracle that can
// resume saves a checkpoint at every ckRows-th row it passes.
//
// Every column is also summed with compensated accumulators, exact to a
// few ulps whatever n is, and the largest disagreement kept: what
// rounding did to the table, not the n·u it could have done.
func (o *WeightedAbs) fill(start, n int, pmf func(i int) []float64) {
	k := o.vs.Len()
	vals, mw, ref := o.vs.Values, o.mw, o.ref
	o.tw.Truncate(start)
	o.ts.Truncate(start)
	o.tw.Reserve(n)
	o.ts.Reserve(n)
	s := o.sums
	sumW, sumS, errW, errS, errTotW, errTotS := s.sumW, s.sumS, s.errW, s.errS, s.errTotW, s.errTotS
	for i := start; i < n; i++ {
		if lv := o.live; lv != nil && i%ckRows == 0 {
			c := i / ckRows
			lv.ckRef = append(lv.ckRef[:2*k*c], ref...)
			lv.ckSums = append(lv.ckSums[:c], absSums{sumW, sumS, errW, errS, errTotW, errTotS, s.accW, s.accS})
		}
		var cw, cs float64
		var aw, as numeric.Accumulator
		row, next := o.tab[2*k*i:2*k*(i+1)], o.tab[2*k*(i+1):2*k*(i+2)]
		for j, pr := range pmf(i) {
			w := pr * mw[j]
			x := w * vals[j]
			cw += w
			cs += x
			next[2*j] = row[2*j] + cw
			next[2*j+1] = row[2*j+1] + cs
			sumS += math.Abs(x)
			aw.Add(w)
			as.Add(x)
			ref[2*j].Add(aw.Value())
			ref[2*j+1].Add(as.Value())
			if d := math.Abs(next[2*j] - ref[2*j].Value()); d > errW {
				errW = d
			}
			if d := math.Abs(next[2*j+1] - ref[2*j+1].Value()); d > errS {
				errS = d
			}
		}
		o.tw.Push(&s.accW, cw)
		o.ts.Push(&s.accS, cs)
		sumW += cw
		errTotW += math.Abs(cw - aw.Value())
		errTotS += math.Abs(cs - as.Value())
	}
	o.sums = absSums{sumW, sumS, errW, errS, errTotW, errTotS, s.accW, s.accS}
	o.n = n
	// A slope 2·(hi−lo) − W reads two entries twice over and the totals
	// once; a cost is a value times a slope plus the same of the S sums. The
	// last term covers the dozen roundings of the expressions themselves.
	vmax := math.Max(-vals[0], vals[k-1])
	ew := 4*errW + errTotW + 0x1p-47*sumW
	ef := vmax*ew + 4*errS + errTotS + 0x1p-47*(vmax*sumW+sumS)
	o.margin = searchMargins(o.margin, vals, ew, ef)
}

// Resume brings the oracle up to date with vp after a mutation: the
// items from `from` on changed, and replaced holds the items vp held at
// from, from+1, … before it (an update's one item; none for an append,
// whose from is the old domain size). Rows 0..from of the table are item
// prefix sums over unchanged items, so they stay; the fill restarts at the
// checkpoint at or before from (an append at the end state) and rewrites
// the rows and tw/ts entries past it. An append grows the table with
// amortised capacity. A mutation that lists a frequency V lacks, or
// replaces the last entry listing one, changes the grid, and the fill
// restarts at row 0 over the new grid, in the same memory. The oracle is
// then bit-identical — V, table, prefixes, margins — to a NewWeightedAbs
// over the mutated vp.
//
// Nothing may price through the oracle while Resume runs. A refused call
// (an oracle filled from a raw table, a shrinking domain, a start out of
// range) changes
// nothing.
func (o *WeightedAbs) Resume(vp *pdata.ValuePDF, from int, replaced []pdata.ItemPDF) error {
	lv := o.live
	switch {
	case lv == nil:
		return fmt.Errorf("hist: a WeightedAbs filled from a raw pmf table cannot resume; NewWeightedAbs builds one that does")
	case vp.N < o.n:
		return fmt.Errorf("hist: resume cannot shrink the domain (%d -> %d)", o.n, vp.N)
	case from < 0 || from+len(replaced) > o.n || (len(replaced) == 0 && from != o.n):
		return fmt.Errorf("hist: resume from %d replacing %d items is outside [0, %d]", from, len(replaced), o.n)
	}
	negZeros := lv.negZeros
	added := lv.added[:0]
	for i := from; i < from+len(replaced); i++ {
		added = lv.count(&vp.Items[i], &o.vs, 1, added)
	}
	for i := o.n; i < vp.N; i++ {
		added = lv.count(&vp.Items[i], &o.vs, 1, added)
	}
	for i := range replaced {
		lv.count(&replaced[i], &o.vs, -1, nil)
	}
	lv.added = added

	start := 0 // a grid change refills every row
	grid := o.regrid()
	k := o.vs.Len()
	switch {
	case grid:
		o.mw, lv.row, o.ref = grow(o.mw[:0], k), grow(lv.row[:0], k), grow(o.ref[:0], 2*k)
	case from == o.n:
		start = from // an append continues the end state
	default:
		c := from / ckRows
		start = c * ckRows
		copy(o.ref, lv.ckRef[2*k*c:2*k*(c+1)])
		o.sums = lv.ckSums[c]
	}
	if start == 0 {
		clear(o.ref)
		o.sums = absSums{}
		o.tab = grow(o.tab[:0], 2*k*(vp.N+1))
		clear(o.tab[:2*k])
	} else {
		o.tab = grow(o.tab, 2*k*(vp.N+1))
	}
	if negZeros > 0 || lv.negZeros > 0 {
		// A fresh grid's zero is whichever of 0 and -0 its sort put first
		// (pdata.Support), which the entries' order decides, not their
		// counts: while any entry lists -0, a resume pays that O(M log M)
		// sort. Only the representative's sign depends on it: w·(±0) adds
		// nothing to any sum.
		o.vs.Values[0] = pdata.Support(vp).Values[0]
	}
	o.setWeights(lv.p)
	o.fill(start, vp.N, o.liveRows(vp, nil))
	return nil
}

// count adds d to the holders of every frequency it lists and returns
// added with the frequencies vs lacks appended. A resume counts the items
// a mutation wrote or overwrote by it, before any row is made: its search
// is what finds the frequencies the grid lacks.
func (lv *absLive) count(it *pdata.ItemPDF, vs *pdata.ValueSet, d int32, added []float64) []float64 {
	lv.negZeros += int(d) * negZeros(it)
	for _, e := range it.Entries {
		if j := vs.Index(e.Freq); j >= 0 {
			lv.holders[j] += d
		} else {
			added = append(added, e.Freq)
		}
	}
	return added
}

// negZeros counts the entries of it that list a negative zero.
func negZeros(it *pdata.ItemPDF) int {
	k := 0
	for _, e := range it.Entries {
		if e.Freq == 0 && math.Signbit(e.Freq) {
			k++
		}
	}
	return k
}

// regrid moves V and holders to the grid the counts describe — the values
// some entry lists, 0 kept whatever, and lv.added — and reports whether
// it changed.
func (o *WeightedAbs) regrid() bool {
	lv := o.live
	changed := len(lv.added) > 0
	for j := 1; j < len(lv.holders) && !changed; j++ {
		changed = lv.holders[j] == 0
	}
	if !changed {
		return false
	}
	old, holders := o.vs.Values, lv.holders
	vals := make([]float64, 0, len(old)+len(lv.added))
	for j, v := range old {
		if j == 0 || holders[j] > 0 {
			vals = append(vals, v)
		}
	}
	vals = append(vals, lv.added...)
	slices.Sort(vals)
	o.vs.Values = slices.Compact(vals)
	lv.holders = make([]int32, len(o.vs.Values))
	for j, v := range old {
		if holders[j] > 0 {
			lv.holders[o.vs.Index(v)] = holders[j]
		}
	}
	for _, v := range lv.added {
		lv.holders[o.vs.Index(v)]++
	}
	return true
}

// searchMargins bounds, for every grid index g, what rounding can do to
// the binary search of argmin when it should end on g, given that a
// computed slope 2·W≤ − W is within ew of the true one and a computed cost
// within ef. The search probes the forward difference at some indices left
// of g and some from g on; a forward difference is the slope times the
// step of V there, and true slopes are non-decreasing in ℓ. So if the
// slope before g is below −(ew + 2·ef/step) for the narrowest step probed
// left of g, every difference probed there is computed negative, as it
// truly is; likewise from g on.
func searchMargins(m, vals []float64, ew, ef float64) []float64 {
	k := len(vals)
	m = grow(m[:0], 2*k)
	for g := range vals {
		left, right := math.Inf(1), math.Inf(1) // narrowest steps probed
		for l, r := 0, k-1; l < r; {
			mid := l + (r-l)/2
			if step := vals[mid+1] - vals[mid]; g <= mid {
				right, r = math.Min(right, step), mid
			} else {
				left, l = math.Min(left, step), mid+1
			}
		}
		m[2*g], m[2*g+1] = ew+2*ef/left, ew+2*ef/right
	}
	return m
}

// N returns the domain size.
func (o *WeightedAbs) N() int { return o.n }

// Combine returns Sum.
func (o *WeightedAbs) Combine() Combine { return Sum }

// Kind returns the metric (SAE or SARE) the oracle prices.
func (o *WeightedAbs) Kind() metric.Kind { return o.kind }

// row returns table row i; bucket [s, e] reads rows s (lo) and e+1 (hi).
func (o *WeightedAbs) row(i int) []float64 {
	k := 2 * o.vs.Len()
	return o.tab[k*i : k*(i+1)]
}

// absSlope is the slope past V[l] of the cost of the bucket with rows lo,
// hi and total weight w: 2·W≤ − W.
func absSlope(lo, hi []float64, l int, w float64) float64 { return 2*(hi[2*l]-lo[2*l]) - w }

// absCost prices that bucket, of totals w and t, at the representative
// v = V[l]. The float64 conversion keeps the product rounded on its own,
// so no architecture fuses it into the sum after it: Cost, argmin and
// CostsForEnd then compute the same floats wherever they inline it.
func absCost(lo, hi []float64, l int, v, w, t float64) float64 {
	cost := float64(v*absSlope(lo, hi, l, w)) + t - 2*(hi[2*l+1]-lo[2*l+1])
	if cost < 0 {
		cost = 0
	}
	return cost
}

// argmin is the canonical representative index: the ℓ a binary search for
// the first non-negative clamped forward difference ends on.
func (o *WeightedAbs) argmin(lo, hi []float64, w, t float64) int {
	vals := o.vs.Values
	l, r := 0, len(vals)-1
	for l < r {
		mid := l + (r-l)/2
		if absCost(lo, hi, mid+1, vals[mid+1], w, t)-absCost(lo, hi, mid, vals[mid], w, t) >= 0 {
			r = mid
		} else {
			l = mid + 1
		}
	}
	return l
}

// Cost prices bucket [s, e], optimizing the representative over V.
func (o *WeightedAbs) Cost(s, e int) (float64, float64) {
	lo, hi := o.row(s), o.row(e+1)
	w, t := o.tw.Range(s, e), o.ts.Range(s, e)
	l := o.argmin(lo, hi, w, t)
	return absCost(lo, hi, l, o.vs.Values[l], w, t), o.vs.Values[l]
}

// CostsForEnd prices every bucket ending at e, s = e down to 0, each from
// its neighbour's representative index g: adding one item moves the
// optimum a step or two, so the walk goes left while the slope before g is
// not negative, right while the slope past g is. It accepts g only when
// those two slopes clear their margins, which is when the binary search of
// Cost can only end on g (searchMargins): same index, same cost
// expression, same bits. Otherwise — a flat stretch of the cost, or an
// optimum further off than a search is long — the bucket is priced by that
// search itself. All state is local to the call.
func (o *WeightedAbs) CostsForEnd(e int, costs, reps []float64) {
	vals := o.vs.Values
	hi := o.row(e + 1)
	maxWalk := 4 * bits.Len(uint(len(vals)))
	g, warm := 0, false
	for s := e; s >= 0; s-- {
		lo := o.row(s)
		w, t := o.tw.Range(s, e), o.ts.Range(s, e)
		for walk := maxWalk; warm; walk-- {
			if g > 0 {
				sl := absSlope(lo, hi, g-1, w)
				if sl >= 0 && walk > 0 {
					g--
					continue
				}
				warm = sl < -o.margin[2*g]
			}
			if warm && g+1 < len(vals) {
				sl := absSlope(lo, hi, g, w)
				if sl < 0 && walk > 0 {
					g++
					continue
				}
				warm = sl > o.margin[2*g+1]
			}
			break
		}
		if !warm {
			g, warm = o.argmin(lo, hi, w, t), true
		}
		costs[s], reps[s] = absCost(lo, hi, g, vals[g], w, t), vals[g]
	}
}
