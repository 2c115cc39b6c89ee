package wavelet

import (
	"fmt"
	"slices"

	"probsyn/internal/haar"
	"probsyn/internal/numeric"
	"probsyn/internal/pdata"
)

// SSEReport is the exact expected-SSE accounting of an SSE-optimal synopsis
// (§4.1). Writing μ_i and σ²_i for the mean and variance of the normalized
// coefficient c_i,
//
//	E[SSE] = Σ_i σ²_i  +  Σ_{i∉I} μ_i²  :
//
// the total coefficient variance is irreducible (it is also Σ_i Var[g_i]);
// a B-term synopsis only controls the dropped-μ² term, which is the range
// the paper's Figure 4 reports error percentages over.
type SSEReport struct {
	// TotalMuSq is Σ_i μ_i², the sum of squared expected normalized
	// coefficients (the maximum reducible error).
	TotalMuSq float64
	// RetainedMuSq is Σ_{i∈I} μ_i².
	RetainedMuSq float64
	// VarianceFloor is Σ_i σ²_i = Σ_i Var[g_i], the irreducible error.
	VarianceFloor float64
	// ExpectedSSE = VarianceFloor + (TotalMuSq - RetainedMuSq).
	ExpectedSSE float64
}

// DroppedMuSq returns Σ_{i∉I} μ_i², Figure 4's raw error measure.
func (r *SSEReport) DroppedMuSq() float64 { return r.TotalMuSq - r.RetainedMuSq }

// ErrorPercent is Figure 4's y-axis: dropped μ² as a percentage of total μ².
func (r *SSEReport) ErrorPercent() float64 {
	if r.TotalMuSq == 0 {
		return 0
	}
	return 100 * r.DroppedMuSq() / r.TotalMuSq
}

// sseGreedy is the forward state of the greedy SSE-optimal build
// (Theorem 7): the Haar transform of the expected frequencies — by
// linearity these are the expected coefficients — in magnitude order, of
// which a budget-b synopsis keeps the first b, each at its expected value,
// and the two sums its error accounting needs. The SSE sweep and BuildSSE
// both extract from one.
type sseGreedy struct {
	c     []float64 // expected coefficients over the zero-padded domain
	order []int     // haar.TopK's total order: |normalized| desc, index asc
	// totalMuSq is Σ_i μ_i² in coefficient order; varFloor the compensated
	// Σ_i Var[g_i] in item order (padding items are deterministic zeros).
	totalMuSq, varFloor float64

	// fill's scratch: the padded expected frequencies, TopK's ranking and
	// the per-item moments.
	work []float64
	rank haar.Ranking
	mom  pdata.Moments
}

// fill runs the greedy over src, in g's memory.
func (g *sseGreedy) fill(src pdata.Source) {
	n := haar.Pow2Ceil(src.Domain())
	g.work = appendExpectedFreqs(slices.Grow(g.work[:0], n), src)
	for len(g.work) < n {
		g.work = append(g.work, 0)
	}
	g.c = resize(g.c, n)
	haar.ForwardInto(g.c, g.work)
	// TopK's order is a deterministic total order (magnitude, then
	// index), so TopK(c, b) is the b-prefix of TopK(c, n) for every b.
	g.order = g.rank.AppendTopK(g.order[:0], g.c, n)
	g.totalMuSq = 0
	for i, v := range g.c {
		nv := v * haar.NormFactor(i, n)
		g.totalMuSq += float64(nv * nv)
	}
	g.mom.Fill(src)
	var acc numeric.Accumulator
	for _, v := range g.mom.Var {
		acc.Add(v)
	}
	g.varFloor = acc.Value()
}

// appendExpectedFreqs appends src's expected frequencies to dst: in dst's
// memory for a value pdf, the model a live frontier holds.
func appendExpectedFreqs(dst []float64, src pdata.Source) []float64 {
	dst = slices.Grow(dst, src.Domain())
	if vp, ok := src.(*pdata.ValuePDF); ok {
		return vp.AppendExpectedFreqs(dst)
	}
	return append(dst, src.ExpectedFreqs()...)
}

// report is the exact error accounting of a synopsis that retains some of
// g.c at their expected values.
func (g *sseGreedy) report(syn *Synopsis) SSEReport {
	rep := SSEReport{TotalMuSq: g.totalMuSq, VarianceFloor: g.varFloor}
	n := len(g.c)
	for k, i := range syn.Indices {
		nv := syn.Values[k] * haar.NormFactor(i, n)
		rep.RetainedMuSq += float64(nv * nv)
	}
	rep.ExpectedSSE = rep.VarianceFloor + rep.DroppedMuSq()
	return rep
}

// at extracts the budget-b synopsis, priced at its expected SSE.
func (g *sseGreedy) at(b int) *Synopsis {
	syn := fromDense(g.c, g.order[:b])
	syn.Cost = g.report(syn).ExpectedSSE
	return syn
}

func (g *sseGreedy) sweep(B int) *Sweep {
	return extractionSweep(min(B, len(g.c)), g.at)
}

// BuildSSE constructs the expected-SSE-optimal B-term synopsis
// (Theorem 7) together with its error accounting: the SSE sweep at budget
// B extracted at B, which is what probsyn.Build runs for this family.
// Runs in O(m + n log n) (the paper's O(n) up to our sort-based
// selection). The domain is zero-padded to a power of two.
func BuildSSE(src pdata.Source, B int) (*Synopsis, *SSEReport, error) {
	if B < 0 {
		return nil, nil, fmt.Errorf("wavelet: negative budget %d", B)
	}
	g := new(sseGreedy)
	g.fill(src)
	sw := g.sweep(B)
	syn := sw.at(sw.bmax)
	rep := g.report(syn)
	return syn, &rep, nil
}

// ExpectedSSEOf returns the exact expected sum-squared error of an
// arbitrary synopsis over the source:
//
//	E[Σ_i (g_i − rec_i)²] = Σ_i Var[g_i] + Σ_i (E[g_i] − rec_i)²,
//
// valid for any model because the synopsis reconstruction is a fixed
// vector. Items beyond the source's domain (zero padding) contribute
// rec_i² each.
func ExpectedSSEOf(src pdata.Source, syn *Synopsis) float64 {
	mom := pdata.MomentsOf(src)
	rec := syn.Reconstruct()
	var acc numeric.Accumulator
	for i, r := range rec {
		if i < len(mom.Mean) {
			d := mom.Mean[i] - r
			acc.Add(mom.Var[i] + d*d)
		} else {
			acc.Add(r * r)
		}
	}
	return acc.Value()
}
