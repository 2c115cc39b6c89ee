package probsyn_test

import (
	"bytes"
	"math"
	"testing"

	"probsyn"
	"probsyn/internal/wavelet"
)

func sampleValuePDF() *probsyn.ValuePDF {
	return &probsyn.ValuePDF{N: 4, Items: []probsyn.ItemPDF{
		{Entries: []probsyn.FreqProb{{Freq: 2, Prob: 0.5}, {Freq: 3, Prob: 0.5}}},
		{Entries: []probsyn.FreqProb{{Freq: 2, Prob: 0.9}}},
		{Entries: []probsyn.FreqProb{{Freq: 8, Prob: 0.7}}},
		{Entries: []probsyn.FreqProb{{Freq: 9, Prob: 0.6}}},
	}}
}

// buildHistogram is Build narrowed to the histogram family's type.
func buildHistogram(src probsyn.Source, m probsyn.Metric, B int, opts ...probsyn.BuildOption) (*probsyn.Histogram, error) {
	s, err := probsyn.Build(src, m, B, opts...)
	if err != nil {
		return nil, err
	}
	return s.(*probsyn.Histogram), nil
}

func TestOptimalHistogramFacade(t *testing.T) {
	for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SSEFixed, probsyn.SSRE,
		probsyn.SAE, probsyn.SARE, probsyn.MAE, probsyn.MARE} {
		h, err := buildHistogram(sampleValuePDF(), m, 2)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if h.B() != 2 {
			t.Fatalf("%v: %d buckets", m, h.B())
		}
	}
}

func TestParseMetricFacade(t *testing.T) {
	m, err := probsyn.ParseMetric("SARE")
	if err != nil || m != probsyn.SARE {
		t.Fatalf("ParseMetric: %v %v", m, err)
	}
	if _, err := probsyn.ParseMetric("bogus"); err == nil {
		t.Fatal("bogus metric accepted")
	}
}

func TestApproxHistogramFacade(t *testing.T) {
	opt, err := buildHistogram(sampleValuePDF(), probsyn.SSE, 2)
	if err != nil {
		t.Fatal(err)
	}
	apx, err := buildHistogram(sampleValuePDF(), probsyn.SSE, 2, probsyn.WithEps(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if apx.Cost > 1.25*opt.Cost+1e-9 || apx.Cost < opt.Cost-1e-9 {
		t.Fatalf("approx %v vs optimal %v", apx.Cost, opt.Cost)
	}
}

func TestEquiDepthFacade(t *testing.T) {
	h, err := probsyn.EquiDepthHistogram(sampleValuePDF(), probsyn.SAE, probsyn.DefaultParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSSEWaveletFacade(t *testing.T) {
	syn, rep, err := probsyn.SSEWavelet(sampleValuePDF(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if syn.B() != 2 {
		t.Fatalf("retained %d coefficients", syn.B())
	}
	direct := wavelet.ExpectedSSEOf(sampleValuePDF(), syn)
	if math.Abs(direct-rep.ExpectedSSE) > 1e-9*(1+direct) {
		t.Fatalf("report %v vs direct %v", rep.ExpectedSSE, direct)
	}
}

func TestRestrictedWaveletFacade(t *testing.T) {
	syn, err := probsyn.Build(sampleValuePDF(), probsyn.SAE, 2, probsyn.WithWavelet())
	if err != nil {
		t.Fatal(err)
	}
	if syn.Terms() > 2 || syn.ErrorCost() < 0 {
		t.Fatalf("synopsis B=%d cost=%v", syn.Terms(), syn.ErrorCost())
	}
}

func TestDatasetRoundTripFacade(t *testing.T) {
	src := &probsyn.Basic{N: 3, Tuples: []probsyn.BasicTuple{{Item: 1, Prob: 0.5}}}
	var buf bytes.Buffer
	if err := probsyn.WriteDataset(&buf, src); err != nil {
		t.Fatal(err)
	}
	back, err := probsyn.ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Domain() != 3 || back.M() != 1 {
		t.Fatalf("roundtrip: %+v", back)
	}
}

func TestWorkloadHistogramFacade(t *testing.T) {
	vp := sampleValuePDF()
	h, err := buildHistogram(vp, probsyn.SSEFixed, 2, probsyn.WithWorkloadWeights([]float64{4, 1, 1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := buildHistogram(vp, probsyn.SSEFixed, 2, probsyn.WithWorkloadWeights([]float64{1})); err == nil {
		t.Fatal("weight length mismatch accepted")
	}
}

func TestDeterministicFacadeAndEstimate(t *testing.T) {
	h, err := buildHistogram(probsyn.Deterministic([]float64{7, 7, 1, 1}), probsyn.SSE, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cost > 1e-12 {
		t.Fatalf("cost %v, want 0", h.Cost)
	}
	if h.Estimate(0) != 7 || h.Estimate(3) != 1 {
		t.Fatalf("estimates wrong: %v %v", h.Estimate(0), h.Estimate(3))
	}
}
