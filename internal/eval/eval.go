// Package eval reproduces the paper's experimental methodology (§5): it
// builds synopses with the probabilistic algorithms and with the two naive
// heuristics — optimizing the expected frequencies, and optimizing one
// sampled possible world — prices every result under the probabilistic
// error objective, and normalizes costs to the paper's error-percentage
// scale (0% = the n-bucket minimum achievable error, 100% = the 1-bucket
// maximum; note that unlike deterministic data, a B=n histogram still has
// non-zero absolute error, §5.1).
package eval

import (
	"fmt"
	"math/rand"

	"probsyn/internal/engine"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
)

// Method identifies how a synopsis was constructed (§2.3, §5).
type Method int

// The paper's three competitors.
const (
	// Probabilistic is the paper's method: optimize the expected error
	// objective directly over the probabilistic input.
	Probabilistic Method = iota
	// Expectation builds the synopsis of the deterministic expected
	// frequencies E[g_i].
	Expectation
	// SampledWorld samples one possible world and builds its optimal
	// deterministic synopsis.
	SampledWorld
)

// String names the method as in the paper's figure legends.
func (m Method) String() string {
	switch m {
	case Probabilistic:
		return "Probabilistic"
	case Expectation:
		return "Expectation"
	case SampledWorld:
		return "Sampled World"
	default:
		return fmt.Sprintf("eval.Method(%d)", int(m))
	}
}

// HistPoint is one (budget, cost) sample of a series.
type HistPoint struct {
	B        int
	Cost     float64 // absolute expected error under the probabilistic metric
	ErrorPct float64 // normalized to [minCost(n buckets), maxCost(1 bucket)]
}

// HistSeries is one plotted line: a method (and sample index, for
// SampledWorld repetitions) across budgets.
type HistSeries struct {
	Method Method
	Sample int // 0 except for repeated SampledWorld draws
	Points []HistPoint
}

// HistogramExperiment reproduces one panel of Figure 2 (or its analogue on
// another metric/dataset).
type HistogramExperiment struct {
	Source  pdata.Source
	Metric  metric.Kind
	Params  metric.Params
	Budgets []int // ascending bucket budgets to report
	Samples int   // number of SampledWorld repetitions (the paper plots 3)
	Rng     *rand.Rand
	// Pool schedules every DP of the experiment; nil is serial. The DP
	// schedule is deterministic, so the series are identical on any pool.
	Pool *engine.Pool
}

// Run executes the experiment and returns one series per method (plus one
// per extra sampled world).
func (e *HistogramExperiment) Run() ([]HistSeries, error) {
	if len(e.Budgets) == 0 {
		return nil, fmt.Errorf("eval: no budgets")
	}
	bmax := 0
	for _, b := range e.Budgets {
		if b <= 0 {
			return nil, fmt.Errorf("eval: budget %d, want >= 1", b)
		}
		if b > bmax {
			bmax = b
		}
	}
	probOracle, err := hist.NewOracle(e.Source, e.Metric, e.Params)
	if err != nil {
		return nil, err
	}
	tab, err := hist.RunDPPool(probOracle, bmax, e.Pool)
	if err != nil {
		return nil, err
	}
	lo := minAchievableCost(probOracle)
	hi := tab.Cost(1)
	pct := func(c float64) float64 {
		if hi-lo <= 0 {
			return 0
		}
		p := 100 * (c - lo) / (hi - lo)
		if p < 0 {
			p = 0 // differenced costs can land an ulp below the floor
		}
		return p
	}

	var out []HistSeries
	probSeries := HistSeries{Method: Probabilistic}
	for _, b := range e.Budgets {
		c := tab.Cost(b)
		probSeries.Points = append(probSeries.Points, HistPoint{B: b, Cost: c, ErrorPct: pct(c)})
	}
	out = append(out, probSeries)

	expSeries, err := e.heuristicSeries(probOracle, pct, pdata.Deterministic(e.Source.ExpectedFreqs()), Expectation, 0, bmax)
	if err != nil {
		return nil, err
	}
	out = append(out, expSeries)

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
		world := pdata.Deterministic(freqs)
		ss, err := e.heuristicSeries(probOracle, pct, world, SampledWorld, s, bmax)
		if err != nil {
			return nil, err
		}
		out = append(out, ss)
	}
	return out, nil
}

// heuristicSeries optimizes the deterministic stand-in under the same
// metric, then re-prices each bucketing under the probabilistic oracle
// (representatives re-optimized per bucket, matching the paper's
// shared-code evaluation).
func (e *HistogramExperiment) heuristicSeries(probOracle hist.Oracle, pct func(float64) float64,
	det *pdata.ValuePDF, m Method, sample, bmax int) (HistSeries, error) {

	detOracle, err := hist.NewOracle(det, e.Metric, e.Params)
	if err != nil {
		return HistSeries{}, err
	}
	detTab, err := hist.RunDPPool(detOracle, bmax, e.Pool)
	if err != nil {
		return HistSeries{}, err
	}
	s := HistSeries{Method: m, Sample: sample}
	for _, b := range e.Budgets {
		h, err := hist.FromBoundaries(probOracle, detTab.Boundaries(b))
		if err != nil {
			return HistSeries{}, err
		}
		s.Points = append(s.Points, HistPoint{B: b, Cost: h.Cost, ErrorPct: pct(h.Cost)})
	}
	return s, nil
}

// minAchievableCost prices the n-bucket histogram: every item its own
// bucket — the floor any method can reach under the metric (non-zero on
// uncertain data, §5.1).
func minAchievableCost(o hist.Oracle) float64 {
	n := o.N()
	total := 0.0
	for i := 0; i < n; i++ {
		c, _ := o.Cost(i, i)
		if o.Combine() == hist.Sum {
			total += c
		} else if c > total {
			total = c
		}
	}
	return total
}
