package hist_test

import (
	"math/rand"
	"testing"

	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

func TestApproximateWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		src := ptest.RandomTuplePDF(rng, 16, 14, 3)
		for _, k := range []metric.Kind{metric.SSE, metric.SSRE, metric.SAE} {
			o, err := hist.NewOracle(src, k, metric.Params{C: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{0.1, 0.5} {
				for B := 1; B <= 6; B++ {
					opt, err := hist.OptimalPool(o, B, nil)
					if err != nil {
						t.Fatal(err)
					}
					apx, err := hist.ApproximatePool(o, B, eps, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := apx.Validate(); err != nil {
						t.Fatalf("%v B=%d: invalid approx histogram: %v", k, B, err)
					}
					if apx.Cost < opt.Cost-1e-9 {
						t.Fatalf("%v B=%d: approx %v below optimal %v", k, B, apx.Cost, opt.Cost)
					}
					if apx.Cost > (1+eps)*opt.Cost+1e-9 {
						t.Fatalf("%v trial %d B=%d eps=%v: approx %v exceeds bound over optimal %v",
							k, trial, B, eps, apx.Cost, opt.Cost)
					}
				}
			}
		}
	}
}

func TestApproximateUsesAtMostBBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	src := ptest.RandomValuePDF(rng, 12, 3)
	o := hist.NewSSEValue(src)
	apx, err := hist.ApproximatePool(o, 5, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if apx.B() > 5 {
		t.Fatalf("approx used %d buckets, budget 5", apx.B())
	}
}

func TestApproximateArgumentErrors(t *testing.T) {
	src := pdata.Deterministic([]float64{1, 2, 3})
	o := hist.NewSSEValue(src)
	if _, err := hist.ApproximatePool(o, 0, 0.1, nil); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := hist.ApproximatePool(o, 2, 0, nil); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := hist.ApproximatePool(o, 2, -1, nil); err == nil {
		t.Error("negative eps accepted")
	}
}

func TestApproximateRejectsMaxMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	src := ptest.RandomValuePDF(rng, 6, 2)
	o, err := hist.NewOracle(src, metric.MAE, metric.Params{C: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hist.ApproximatePool(o, 2, 0.1, nil); err == nil {
		t.Error("Approximate accepted a max-error metric")
	}
}

// On deterministic runs the approximation must still find the zero-error
// bucketing (the zero-cost breakpoint class must be handled).
func TestApproximateZeroErrorPrefix(t *testing.T) {
	freqs := []float64{4, 4, 4, 4, 1, 1, 1, 1}
	o := hist.NewSSEValue(pdata.Deterministic(freqs))
	apx, err := hist.ApproximatePool(o, 2, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if apx.Cost > 1e-12 {
		t.Fatalf("approx cost %v, want 0", apx.Cost)
	}
}
