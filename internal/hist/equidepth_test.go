package hist_test

import (
	"math"
	"math/rand"
	"testing"

	"probsyn/internal/hist"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

func TestEquiDepthBalancesExpectedMass(t *testing.T) {
	// Uniform expected mass: equi-depth must cut into equal-width buckets.
	freqs := make([]float64, 12)
	for i := range freqs {
		freqs[i] = 2
	}
	src := pdata.Deterministic(freqs)
	o := hist.NewSSEValue(src)
	h, err := hist.EquiDepth(src.ExpectedFreqs(), o, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.B() != 4 {
		t.Fatalf("buckets = %d, want 4", h.B())
	}
	for _, b := range h.Buckets {
		if b.Width() != 3 {
			t.Fatalf("bucket %+v width %d, want 3", b, b.Width())
		}
	}
}

func TestEquiDepthSkewedMass(t *testing.T) {
	// One heavy item: its bucket should be narrow.
	freqs := []float64{1, 1, 1, 1, 100, 1, 1, 1}
	src := pdata.Deterministic(freqs)
	o := hist.NewSSEValue(src)
	h, err := hist.EquiDepth(src.ExpectedFreqs(), o, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The heavy item must be separated from at least one of its flanks:
	// mass quantiles at 1/3 and 2/3 both land on item 4.
	found := false
	for _, b := range h.Buckets {
		if b.Start == 4 || b.End == 4 {
			if b.Width() <= 5 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("heavy item not isolated: %+v", h.Buckets)
	}
}

func TestEquiDepthNeverBeatsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		src := ptest.RandomValuePDF(rng, 10, 3)
		o := hist.NewSSEValue(src)
		for B := 1; B <= 5; B++ {
			opt, err := hist.OptimalPool(o, B, nil)
			if err != nil {
				t.Fatal(err)
			}
			ed, err := hist.EquiDepth(src.ExpectedFreqs(), o, B)
			if err != nil {
				t.Fatal(err)
			}
			if ed.Cost < opt.Cost-1e-9 {
				t.Fatalf("trial %d B=%d: equi-depth %v beats optimal %v", trial, B, ed.Cost, opt.Cost)
			}
		}
	}
}

func TestEquiDepthArgumentErrors(t *testing.T) {
	src := pdata.Deterministic([]float64{1, 2})
	o := hist.NewSSEValue(src)
	if _, err := hist.EquiDepth([]float64{1}, o, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := hist.EquiDepth([]float64{1, 2}, o, 0); err == nil {
		t.Error("B=0 accepted")
	}
}

func TestEquiDepthZeroMass(t *testing.T) {
	// All-zero expected mass: must still produce a valid partition.
	src := pdata.Deterministic(make([]float64, 6))
	o := hist.NewSSEValue(src)
	h, err := hist.EquiDepth(src.ExpectedFreqs(), o, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Cost) > 1e-12 {
		t.Fatalf("zero data cost %v", h.Cost)
	}
}
