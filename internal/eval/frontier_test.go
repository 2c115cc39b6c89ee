package eval

import (
	"math/rand"
	"testing"

	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/ptest"
	"probsyn/internal/wavelet"
)

// The frontier experiment's series must match per-budget independent
// builds exactly, be non-increasing in budget, and stash servable
// catalog entries for the two server families.
func TestFrontierExperimentMatchesIndependentBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := ptest.RandomValuePDF(rng, 32, 3)
	cat := catalog.New()
	exp := &FrontierExperiment{
		Source: src, Metric: metric.SAE, Params: metric.Params{C: 0.5},
		Bmax: 8, Quantize: 1,
		Pool:    engine.New(engine.Options{Workers: 2, Grain: 1}),
		Catalog: cat, Dataset: "t",
	}
	series, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("got %d series, want histogram + wavelet + unrestricted", len(series))
	}
	for _, s := range series {
		if len(s.Points) != exp.Bmax {
			t.Fatalf("%s: %d points, want %d", s.Family, len(s.Points), exp.Bmax)
		}
		for i, pt := range s.Points {
			if pt.B != i+1 {
				t.Fatalf("%s: point %d has budget %d", s.Family, i, pt.B)
			}
			if i > 0 && pt.Cost > s.Points[i-1].Cost {
				t.Fatalf("%s: cost increases at budget %d: %v > %v", s.Family, pt.B, pt.Cost, s.Points[i-1].Cost)
			}
		}
	}
	// Spot-check costs against independent builds.
	o, err := hist.NewOracle(src, metric.SAE, metric.Params{C: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1, 4, 8} {
		h, err := hist.OptimalPool(o, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := series[0].Points[b-1].Cost; got != h.Cost {
			t.Fatalf("histogram frontier cost(%d) = %v, independent build %v", b, got, h.Cost)
		}
		_, wc, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 0.5}, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := series[1].Points[b-1].Cost; got != wc {
			t.Fatalf("wavelet frontier cost(%d) = %v, independent build %v", b, got, wc)
		}
	}
	// The catalog holds histogram + restricted wavelet entries for every
	// budget (unrestricted synopses are not servable under the same key).
	if want := 2 * exp.Bmax; cat.Len() != want {
		t.Fatalf("catalog has %d entries, want %d", cat.Len(), want)
	}
}

func TestFrontierExperimentValidatesBmax(t *testing.T) {
	exp := &FrontierExperiment{
		Source: ptest.RandomValuePDF(rand.New(rand.NewSource(1)), 8, 2),
		Metric: metric.SAE, Params: metric.Params{C: 0.5},
	}
	if _, err := exp.Run(); err == nil {
		t.Fatal("Bmax 0 accepted")
	}
}
