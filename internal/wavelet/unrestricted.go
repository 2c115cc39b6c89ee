package wavelet

import (
	"math"

	"probsyn/internal/haar"
	"probsyn/internal/pdata"
)

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
