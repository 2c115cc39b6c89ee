package eval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"probsyn/internal/haar"
	"probsyn/internal/pdata"
)

// A Figure 4 line has a Figure 2 line's shape, so one printer serves
// both: a wavelet point's Cost is the Σ μ_ci² mass its coefficient set
// leaves out, and ErrorPct is that as a share of the total.
type (
	WaveletPoint  = HistPoint
	WaveletSeries = HistSeries
)

// WaveletExperiment reproduces a panel of Figure 4: expected-SSE wavelet
// synopses, Probabilistic versus Sampled World, with the error measured as
// the percentage of Σ μ_ci² NOT captured by the retained coefficient set
// (§5.2; the paper's analysis shows this is exactly the reducible part of
// the expected SSE). The Expectation heuristic coincides with the
// probabilistic method here (Theorem 7), which is why the paper plots only
// two lines.
type WaveletExperiment struct {
	Source  pdata.Source
	Budgets []int
	Samples int
	Rng     *rand.Rand
}

// Run executes the experiment.
func (e *WaveletExperiment) Run() ([]WaveletSeries, error) {
	if len(e.Budgets) == 0 {
		return nil, fmt.Errorf("eval: no budgets")
	}
	mu := haar.Normalize(haar.Forward(haar.Pad(e.Source.ExpectedFreqs())))
	n := len(mu)
	muSq := make([]float64, n)
	total := 0.0
	for i, v := range mu {
		muSq[i] = v * v
		total += muSq[i]
	}
	point := func(b int, retained float64) WaveletPoint {
		pt := WaveletPoint{B: b, Cost: total - retained}
		if total != 0 && pt.Cost > 0 {
			pt.ErrorPct = 100 * pt.Cost / total
		}
		return pt
	}

	var out []WaveletSeries
	// Probabilistic: retain by |mu| — the optimal order.
	probOrder := orderByMagnitude(mu)
	out = append(out, seriesFromOrder(Probabilistic, 0, e.Budgets, probOrder, muSq, point))

	samples := e.Samples
	if samples <= 0 {
		samples = 1
	}
	rng := e.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	freqs := make([]float64, e.Source.Domain())
	for s := 0; s < samples; s++ {
		e.Source.SampleInto(rng, freqs)
		nc := haar.Normalize(haar.Forward(haar.Pad(append([]float64(nil), freqs...))))
		order := orderByMagnitude(nc)
		out = append(out, seriesFromOrder(SampledWorld, s, e.Budgets, order, muSq, point))
	}
	return out, nil
}

func orderByMagnitude(c []float64) []int {
	idx := make([]int, len(c))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ma, mb := math.Abs(c[idx[a]]), math.Abs(c[idx[b]])
		if ma != mb {
			return ma > mb
		}
		return idx[a] < idx[b]
	})
	return idx
}

func seriesFromOrder(m Method, sample int, budgets []int, order []int, muSq []float64, point func(b int, retained float64) WaveletPoint) WaveletSeries {
	// prefix[k] = mu² mass captured by the first k coefficients of order.
	prefix := make([]float64, len(order)+1)
	for k, i := range order {
		prefix[k+1] = prefix[k] + muSq[i]
	}
	s := WaveletSeries{Method: m, Sample: sample}
	for _, b := range budgets {
		k := b
		if k > len(order) {
			k = len(order)
		}
		s.Points = append(s.Points, point(b, prefix[k]))
	}
	return s
}
