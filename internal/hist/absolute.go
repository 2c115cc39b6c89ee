package hist

import (
	"fmt"
	"math"
	"math/bits"

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
type WeightedAbs struct {
	kind metric.Kind
	n    int
	vs   pdata.ValueSet
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
}

// NewWeightedAbs builds the oracle from a dense pmf table; kind must be
// metric.SAE or metric.SARE.
func NewWeightedAbs(tab *pdata.PMFTable, kind metric.Kind, p metric.Params) (*WeightedAbs, error) {
	if kind != metric.SAE && kind != metric.SARE {
		return nil, fmt.Errorf("hist: WeightedAbs supports SAE/SARE, got %v", kind)
	}
	n, k := tab.N(), tab.VS.Len()
	o := &WeightedAbs{
		kind: kind,
		n:    n,
		vs:   tab.VS,
		tab:  make([]float64, 2*k*(n+1)),
	}
	totW := make([]float64, n)
	totS := make([]float64, n)
	mw := make([]float64, k)
	for j, v := range tab.VS.Values {
		mw[j] = kind.Weight(v, p)
	}
	// Every column is also summed with compensated accumulators, exact to a
	// few ulps whatever n is, and the largest disagreement kept: what
	// rounding did to the table, not the n·u it could have done.
	refW, refS := make([]numeric.Accumulator, k), make([]numeric.Accumulator, k)
	vals := tab.VS.Values
	var sumW, sumS, errW, errS, errTotW, errTotS float64
	for i := 0; i < n; i++ {
		var cw, cs float64
		var aw, as numeric.Accumulator
		row, next := o.tab[2*k*i:2*k*(i+1)], o.tab[2*k*(i+1):2*k*(i+2)]
		for j, pr := range tab.P[i] {
			w := pr * mw[j]
			x := w * vals[j]
			cw += w
			cs += x
			next[2*j] = row[2*j] + cw
			next[2*j+1] = row[2*j+1] + cs
			sumS += math.Abs(x)
			aw.Add(w)
			as.Add(x)
			refW[j].Add(aw.Value())
			refS[j].Add(as.Value())
			if d := math.Abs(next[2*j] - refW[j].Value()); d > errW {
				errW = d
			}
			if d := math.Abs(next[2*j+1] - refS[j].Value()); d > errS {
				errS = d
			}
		}
		totW[i], totS[i] = cw, cs
		sumW += cw
		errTotW += math.Abs(cw - aw.Value())
		errTotS += math.Abs(cs - as.Value())
	}
	o.tw = numeric.NewPrefix(totW)
	o.ts = numeric.NewPrefix(totS)
	// A slope 2·(hi−lo) − W reads two entries twice over and the totals
	// once; a cost is a value times a slope plus the same of the S sums. The
	// last term covers the dozen roundings of the expressions themselves.
	vmax := math.Max(-vals[0], vals[k-1])
	ew := 4*errW + errTotW + 0x1p-47*sumW
	ef := vmax*ew + 4*errS + errTotS + 0x1p-47*(vmax*sumW+sumS)
	o.margin = searchMargins(vals, ew, ef)
	return o, nil
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
func searchMargins(vals []float64, ew, ef float64) []float64 {
	k := len(vals)
	m := make([]float64, 2*k)
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
