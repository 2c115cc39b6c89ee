package hist

import (
	"fmt"
	"math"

	"probsyn/internal/metric"
	"probsyn/internal/numeric"
	"probsyn/internal/pdata"
)

// Quadratic is the oracle of every objective whose bucket error is a
// weighted sum of squares, Σ_{i∈b} E[w_i·(g_i − b̂)²]. Per item it keeps
// x_i = E[w_i·g_i²], y_i = E[w_i·g_i] and z_i = E[w_i], and over their
// range sums X, Y, Z a bucket costs
//
//	X − Y²/Z at the optimal representative b̂* = Y/Z,
//
// in O(1) from three prefix arrays. Three objectives differ only in the
// per-item triple:
//
//   - SSE-fixed (NewSSEFixed): (E[g²], E[g], 1);
//   - workload-weighted SSE-fixed (NewWorkloadSSE): the same times the
//     item's query weight;
//   - SSRE (NewSSRE): w(g) = 1/max(c,|g|)², pdata.ItemPDF.SSRETerms.
//
// A bucket with Z = 0, one the weights never query, costs 0 at any
// representative and reports 0.
type Quadratic struct {
	x, y, z numeric.Prefix
}

func newQuadratic(x, y, z []float64) *Quadratic {
	return &Quadratic{x: numeric.NewPrefix(x), y: numeric.NewPrefix(y), z: numeric.NewPrefix(z)}
}

// NewSSEFixed builds the fixed-representative SSE oracle, valid for any
// source because its cost uses only per-item marginal moments:
// Σ E[g²] − (Σ E[g])²/n_b, minimized by the mean of the expected
// frequencies. Under this objective the optimal bucketing coincides with
// the V-optimal histogram of the expected frequencies (DESIGN.md finding
// 1), which the tests verify. A prefix of ones is exact, so Z is n_b.
func NewSSEFixed(src pdata.Source) *Quadratic {
	mom := pdata.MomentsOf(src)
	ones := make([]float64, len(mom.Mean))
	for i := range ones {
		ones[i] = 1
	}
	return newQuadratic(mom.MeanSq, mom.Mean, ones)
}

// NewWorkloadSSE builds the workload-weighted SSE-fixed oracle, the
// extension the paper's concluding remarks call for ("the error objective
// formulations... implicitly assume uniform workloads for point queries").
// Given per-item query weights w_i (e.g. point-query access frequencies),
// a bucket costs Σ_{i∈b} w_i·E[(g_i − b̂)²] at b̂* = Σ w_i·E[g_i] / Σ w_i.
// Uniform weights reduce to NewSSEFixed. The weights are checked by
// CheckWorkloadWeights.
func NewWorkloadSSE(src pdata.Source, weights []float64) (*Quadratic, error) {
	n := src.Domain()
	if err := CheckWorkloadWeights(weights, n); err != nil {
		return nil, err
	}
	mom := pdata.MomentsOf(src)
	wsq := make([]float64, n)
	wm := make([]float64, n)
	for i, w := range weights {
		wsq[i] = w * mom.MeanSq[i]
		wm[i] = w * mom.Mean[i]
	}
	return newQuadratic(wsq, wm, weights), nil
}

// CheckWorkloadWeights reports whether weights can weight a domain of n
// items: one weight per item, each finite and non-negative. A NaN or
// infinite weight would price buckets at NaN.
func CheckWorkloadWeights(weights []float64, n int) error {
	if len(weights) != n {
		return fmt.Errorf("hist: %d weights for domain %d", len(weights), n)
	}
	for i, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("hist: weight %v at item %d: a workload weight must be finite and non-negative", w, i)
		}
	}
	return nil
}

// NewSSRE builds the sum-squared-relative-error oracle (§3.2, Theorem 2)
// for a value pdf under sanity constant p.C. Tuple pdf inputs go through
// the induced value pdf: the cost depends only on per-item marginals.
func NewSSRE(vp *pdata.ValuePDF, p metric.Params) *Quadratic {
	x := make([]float64, vp.N)
	y := make([]float64, vp.N)
	z := make([]float64, vp.N)
	for i := range vp.Items {
		x[i], y[i], z[i] = vp.Items[i].SSRETerms(p)
	}
	return newQuadratic(x, y, z)
}

// N returns the domain size.
func (o *Quadratic) N() int { return o.z.Len() }

// Combine returns Sum.
func (o *Quadratic) Combine() Combine { return Sum }

// Cost prices bucket [s, e] in O(1).
func (o *Quadratic) Cost(s, e int) (float64, float64) {
	return quadCost(o.x.Range(s, e), o.y.Range(s, e), o.z.Range(s, e))
}

// CostsForEnd writes Cost(s, e) for every s <= e, one pass over the
// prefix arrays.
func (o *Quadratic) CostsForEnd(e int, costs, reps []float64) {
	x, y, z := o.x.Sums(), o.y.Sums(), o.z.Sums()
	xE, yE, zE := x[e+1], y[e+1], z[e+1]
	reps = reps[:e+1]
	for s := range costs[:e+1] {
		costs[s], reps[s] = quadCost(xE-x[s], yE-y[s], zE-z[s])
	}
}

// quadCost prices a bucket from its range sums X, Y and Z.
func quadCost(x, y, z float64) (float64, float64) {
	if z <= 0 {
		return 0, 0
	}
	cost := x - y*y/z
	if cost < 0 {
		cost = 0 // differenced prefixes can go an ulp negative
	}
	return cost, y / z
}
