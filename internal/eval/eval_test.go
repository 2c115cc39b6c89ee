package eval_test

import (
	"math"
	"math/rand"
	"testing"

	"probsyn/internal/engine"
	"probsyn/internal/eval"
	"probsyn/internal/gen"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

func smallLinkage(t *testing.T, n int) *pdata.Basic {
	t.Helper()
	return gen.MystiQLinkage(rand.New(rand.NewSource(11)), gen.DefaultMystiQ(n))
}

func findSeries(ss []eval.HistSeries, m eval.Method) *eval.HistSeries {
	for i := range ss {
		if ss[i].Method == m {
			return &ss[i]
		}
	}
	return nil
}

func TestHistogramExperimentOrdering(t *testing.T) {
	src := smallLinkage(t, 120)
	for _, k := range []metric.Kind{metric.SSE, metric.SSRE, metric.SAE, metric.SARE} {
		exp := &eval.HistogramExperiment{
			Source: src, Metric: k, Params: metric.Params{C: 0.5},
			Budgets: []int{1, 2, 5, 10, 25, 60}, Samples: 2,
			Rng: rand.New(rand.NewSource(3)),
		}
		series, err := exp.Run()
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if len(series) != 4 { // prob + expectation + 2 sampled
			t.Fatalf("%v: %d series, want 4", k, len(series))
		}
		prob := findSeries(series, eval.Probabilistic)
		for _, s := range series {
			for j, pt := range s.Points {
				// The probabilistic method is optimal: no other method may
				// beat it at the same budget.
				if pt.Cost < prob.Points[j].Cost-1e-9*(1+pt.Cost) {
					t.Fatalf("%v: %v beats Probabilistic at B=%d (%v < %v)",
						k, s.Method, pt.B, pt.Cost, prob.Points[j].Cost)
				}
				if pt.ErrorPct < -1e-6 || pt.ErrorPct > 100+1e-6 {
					t.Fatalf("%v: %v error%% %v outside [0,100] at B=%d", k, s.Method, pt.ErrorPct, pt.B)
				}
			}
		}
		// Probabilistic cost must be non-increasing in B, ending below start.
		pts := prob.Points
		for j := 1; j < len(pts); j++ {
			if pts[j].Cost > pts[j-1].Cost+1e-9 {
				t.Fatalf("%v: probabilistic cost increased at B=%d", k, pts[j].B)
			}
		}
		if pts[0].ErrorPct < 99.9 {
			t.Fatalf("%v: B=1 error%% = %v, want 100", k, pts[0].ErrorPct)
		}
	}
}

// An experiment run on a shared engine pool must report the series the
// serial run (nil Pool) reports, bit for bit.
func TestHistogramExperimentSharedPool(t *testing.T) {
	src := smallLinkage(t, 120)
	budgets := []int{1, 2, 5, 10}
	base := &eval.HistogramExperiment{
		Source: src, Metric: metric.SAE, Params: metric.Params{C: 0.5},
		Budgets: budgets, Samples: 1, Rng: rand.New(rand.NewSource(3)),
	}
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	pooled := &eval.HistogramExperiment{
		Source: src, Metric: metric.SAE, Params: metric.Params{C: 0.5},
		Budgets: budgets, Samples: 1, Rng: rand.New(rand.NewSource(3)),
		Pool: engine.New(engine.Options{Workers: 4, Grain: 1}),
	}
	got, err := pooled.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i].Points {
			if got[i].Points[j] != want[i].Points[j] {
				t.Fatalf("series %d point %d: pooled %+v != serial %+v", i, j, got[i].Points[j], want[i].Points[j])
			}
		}
	}
}

func TestHistogramExperimentAllMethodsAgreeAtBEqualOne(t *testing.T) {
	// With a single bucket there is only one bucketing, so every method's
	// repriced cost coincides.
	src := smallLinkage(t, 60)
	exp := &eval.HistogramExperiment{
		Source: src, Metric: metric.SSE, Params: metric.Params{},
		Budgets: []int{1}, Samples: 1, Rng: rand.New(rand.NewSource(5)),
	}
	series, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	base := series[0].Points[0].Cost
	for _, s := range series {
		if math.Abs(s.Points[0].Cost-base) > 1e-9*(1+base) {
			t.Fatalf("%v: B=1 cost %v != %v", s.Method, s.Points[0].Cost, base)
		}
	}
}

func TestHistogramExperimentMaxMetric(t *testing.T) {
	src := smallLinkage(t, 40)
	exp := &eval.HistogramExperiment{
		Source: src, Metric: metric.MAE, Params: metric.Params{C: 0.5},
		Budgets: []int{1, 3, 8}, Samples: 1, Rng: rand.New(rand.NewSource(7)),
	}
	series, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	prob := findSeries(series, eval.Probabilistic)
	for _, s := range series {
		for j, pt := range s.Points {
			if pt.Cost < prob.Points[j].Cost-1e-9 {
				t.Fatalf("%v beats probabilistic under MAE", s.Method)
			}
		}
	}
}

func TestHistogramExperimentArgumentErrors(t *testing.T) {
	src := smallLinkage(t, 20)
	if _, err := (&eval.HistogramExperiment{Source: src, Metric: metric.SSE}).Run(); err == nil {
		t.Error("no budgets accepted")
	}
	bad := &eval.HistogramExperiment{Source: src, Metric: metric.SSE, Budgets: []int{0}}
	if _, err := bad.Run(); err == nil {
		t.Error("budget 0 accepted")
	}
}

func TestMethodString(t *testing.T) {
	if eval.Probabilistic.String() != "Probabilistic" ||
		eval.Expectation.String() != "Expectation" ||
		eval.SampledWorld.String() != "Sampled World" {
		t.Error("method names diverge from the paper's legends")
	}
}

// --- wavelet experiment -------------------------------------------------------

func TestWaveletExperimentOrdering(t *testing.T) {
	src := smallLinkage(t, 200)
	exp := &eval.WaveletExperiment{
		Source:  src,
		Budgets: []int{1, 2, 4, 8, 16, 64, 256},
		Samples: 2,
		Rng:     rand.New(rand.NewSource(9)),
	}
	series, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("%d series, want 3", len(series))
	}
	prob := series[0]
	if prob.Method != eval.Probabilistic {
		t.Fatal("first series should be probabilistic")
	}
	for _, s := range series {
		for j := range s.Points {
			pt := s.Points[j]
			if pt.ErrorPct < -1e-9 || pt.ErrorPct > 100+1e-9 {
				t.Fatalf("%v: error%% %v outside range", s.Method, pt.ErrorPct)
			}
			// Probabilistic retains the maximal mu² mass at every budget.
			if pt.ErrorPct < prob.Points[j].ErrorPct-1e-9 {
				t.Fatalf("%v beats probabilistic at B=%d", s.Method, pt.B)
			}
			if j > 0 && pt.ErrorPct > s.Points[j-1].ErrorPct+1e-9 {
				t.Fatalf("%v: error%% increased with budget at B=%d", s.Method, pt.B)
			}
		}
	}
	// Full budget: probabilistic error must reach 0.
	last := prob.Points[len(prob.Points)-1]
	if last.B >= 256 && last.ErrorPct > 1e-9 {
		t.Fatalf("full-budget probabilistic error%% = %v", last.ErrorPct)
	}
}

func TestWaveletExperimentNoBudgets(t *testing.T) {
	src := smallLinkage(t, 16)
	if _, err := (&eval.WaveletExperiment{Source: src}).Run(); err == nil {
		t.Error("no budgets accepted")
	}
}

// --- Monte Carlo --------------------------------------------------------------

func TestMonteCarloMatchesAnalyticCumulative(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	src := ptest.RandomValuePDF(rng, 10, 3)
	p := metric.Params{C: 0.5}
	o, err := hist.NewOracle(src, metric.SAE, p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hist.OptimalPool(o, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval.MonteCarloHistogramError(src, h, metric.SAE, p, 200000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-h.Cost) > 0.05*(1+h.Cost) {
		t.Fatalf("Monte Carlo %v vs analytic %v", got, h.Cost)
	}
}

// E[max_i err] >= max_i E[err]: the footnote-1 objective dominates ours.
func TestMonteCarloExpectedMaxDominatesMaxExpected(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	src := ptest.RandomValuePDF(rng, 10, 3)
	p := metric.Params{C: 0.5}
	o, err := hist.NewOracle(src, metric.MAE, p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hist.OptimalPool(o, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval.MonteCarloHistogramError(src, h, metric.MAE, p, 100000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got < h.Cost-0.02*(1+h.Cost) {
		t.Fatalf("E[max] = %v below max E = %v", got, h.Cost)
	}
}

func TestMonteCarloArgumentErrors(t *testing.T) {
	src := pdata.Deterministic([]float64{1, 2})
	h := &hist.Histogram{N: 2, Buckets: []hist.Bucket{{Start: 0, End: 1, Rep: 1}}}
	rng := rand.New(rand.NewSource(1))
	if _, err := eval.MonteCarloHistogramError(src, h, metric.SAE, metric.Params{}, 0, rng); err == nil {
		t.Error("0 samples accepted")
	}
	tiny := &hist.Histogram{N: 1, Buckets: []hist.Bucket{{Start: 0, End: 0, Rep: 1}}}
	if _, err := eval.MonteCarloHistogramError(src, tiny, metric.SAE, metric.Params{}, 10, rng); err == nil {
		t.Error("domain mismatch accepted")
	}
}
