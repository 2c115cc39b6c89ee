package wavelet

import (
	"math"

	"probsyn/internal/engine"
	"probsyn/internal/haar"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
)

// BuildUnrestrictedPool approximates the unrestricted thresholding problem of
// §4.2: retained coefficient values are chosen to optimize the target
// metric rather than pinned to their expected values. The paper defers
// this case, sketching the standard approach — "bound and quantize the
// range of possible coefficient values"; this implements that sketch:
//
//   - each coefficient's candidate set is a grid of 2q+1 values spanning
//     [μ_j − r_j, μ_j + r_j], where μ_j is the expected coefficient and
//     r_j a pessimistic range bound from the min/max possible frequencies
//     in its support (the paper's first suggested bounding option);
//   - the coefficient-tree DP then minimizes over candidate values as well
//     as retain/drop decisions and budget splits.
//
// The ancestor-decision state space grows as the product of candidate-set
// sizes along each root-to-leaf path — O((2q+2)^depth) instead of the
// restricted DP's 2^depth — so this is exponentially more expensive than
// BuildRestrictedPool in both q and log n. Use it on small domains: the
// result is optimal over the quantized candidate sets, and combinations
// whose state space would exhaust memory fail fast with an error. By
// construction its error is never worse than the restricted optimum,
// since μ_j is always a candidate; the tests verify both properties.
// The DP is scheduled on pool (nil means serial); like the restricted
// build, the result is bit-identical at any worker count.
func BuildUnrestrictedPool(src pdata.Source, kind metric.Kind, p metric.Params, B, q int, pool *engine.Pool) (*Synopsis, float64, error) {
	return buildAt(src, UnrestrictedFamily, kind, p, B, q, pool)
}

// unrestrictedSingleton solves the n == 1 domain at budget b: retain the
// best candidate value only when strictly better than dropping.
func unrestrictedSingleton(pe *PointErrors, cands []float64, b int) *Synopsis {
	syn := &Synopsis{N: 1}
	best := pe.Err(0, 0)
	bestV := math.NaN()
	if b >= 1 {
		for _, v := range cands {
			if e := pe.Err(0, v); e < best {
				best, bestV = e, v
			}
		}
	}
	if !math.IsNaN(bestV) {
		syn.Indices, syn.Values = []int{0}, []float64{bestV}
	}
	syn.Cost = best
	return syn
}

// candidateGrids builds each coefficient's candidate value list: μ first
// (so the restricted solution stays reachable), then 2q grid points over
// the pessimistic range derived from min/max possible frequencies.
func candidateGrids(vp *pdata.ValuePDF, mu []float64, q int) [][]float64 {
	n := vp.N
	minF := make([]float64, n)
	maxF := make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := math.Inf(1), 0.0
		if vp.Items[i].ZeroProb() > 0 {
			lo = 0
		}
		for _, e := range vp.Items[i].Entries {
			if e.Prob <= 0 {
				continue
			}
			lo = math.Min(lo, e.Freq)
			hi = math.Max(hi, e.Freq)
		}
		if math.IsInf(lo, 1) {
			lo = 0
		}
		minF[i], maxF[i] = lo, hi
	}
	// Coefficient j = (avg of left half - avg of right half)/2; a
	// pessimistic bound uses extreme frequencies on each side.
	cands := make([][]float64, n)
	for j := 0; j < n; j++ {
		lo, hi := haar.Support(j, n)
		fmin, fmax := math.Inf(1), math.Inf(-1)
		for i := lo; i <= hi; i++ {
			fmin = math.Min(fmin, minF[i])
			fmax = math.Max(fmax, maxF[i])
		}
		var cLo, cHi float64
		if j == 0 {
			cLo, cHi = fmin, fmax // the overall average lies within [fmin, fmax]
		} else {
			half := (fmax - fmin) / 2
			cLo, cHi = -half, half
		}
		list := []float64{mu[j]}
		for g := 0; g < 2*q; g++ {
			v := cLo + (cHi-cLo)*float64(g)/math.Max(1, float64(2*q-1))
			if v != mu[j] {
				list = append(list, v)
			}
		}
		cands[j] = list
	}
	return cands
}
