package hist_test

import (
	"math"
	"math/rand"
	"testing"

	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

// weightedExactCost computes Σ w_i·E[(g_i − rep)²] by enumeration.
func weightedExactCost(src pdata.Source, weights []float64, s, e int, rep float64) float64 {
	per := ptest.PerItemExpectedErrors(src, metric.SSEFixed, metric.Params{}, rep)
	total := 0.0
	for i := s; i <= e; i++ {
		total += weights[i] * per[i]
	}
	return total
}

func TestWorkloadSSEAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 15; trial++ {
		src := ptest.RandomTuplePDF(rng, 5, 4, 2)
		weights := make([]float64, 5)
		for i := range weights {
			weights[i] = rng.Float64() * 3
		}
		o, err := hist.NewWorkloadSSE(src, weights)
		if err != nil {
			t.Fatal(err)
		}
		allBuckets(5, func(s, e int) {
			cost, rep := o.Cost(s, e)
			want := weightedExactCost(src, weights, s, e, rep)
			if math.Abs(cost-want) > 1e-9 {
				t.Fatalf("trial %d [%d,%d]: cost %v, enum %v", trial, s, e, cost, want)
			}
			for _, d := range []float64{-0.1, 0.1} {
				if alt := weightedExactCost(src, weights, s, e, rep+d); alt < cost-1e-9 {
					t.Fatalf("trial %d [%d,%d]: rep %v suboptimal", trial, s, e, rep)
				}
			}
		})
	}
}

func TestWorkloadSSEUniformReducesToSSEFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	src := ptest.RandomValuePDF(rng, 8, 3)
	uniform := make([]float64, 8)
	for i := range uniform {
		uniform[i] = 1
	}
	wo, err := hist.NewWorkloadSSE(src, uniform)
	if err != nil {
		t.Fatal(err)
	}
	fo := hist.NewSSEFixed(src)
	allBuckets(8, func(s, e int) {
		wc, wr := wo.Cost(s, e)
		fc, fr := fo.Cost(s, e)
		if math.Abs(wc-fc) > 1e-9 || math.Abs(wr-fr) > 1e-9 {
			t.Fatalf("[%d,%d]: workload (%v,%v) vs fixed (%v,%v)", s, e, wc, wr, fc, fr)
		}
	})
}

// Skewed workloads must reshape the bucketing: items the workload never
// queries should not consume boundary budget.
func TestWorkloadSSESkewReshapesBuckets(t *testing.T) {
	// Data with structure on both halves, workload that only queries the
	// left half.
	freqs := []float64{1, 9, 2, 8, 5, 5, 100, 100}
	src := pdata.Deterministic(freqs)
	weights := []float64{1, 1, 1, 1, 0, 0, 0, 0}
	o, err := hist.NewWorkloadSSE(src, weights)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hist.OptimalPool(o, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All split budget must land in the queried half: last bucket should
	// cover the whole unqueried right region at zero cost.
	if h.Cost > 1e-9 {
		t.Fatalf("4 buckets over 4 queried items should cost 0, got %v", h.Cost)
	}
	last := h.Buckets[len(h.Buckets)-1]
	if last.Start > 4 {
		t.Fatalf("boundary budget wasted on unqueried items: %+v", h.Buckets)
	}
}

func TestWorkloadSSEDPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 8; trial++ {
		src := ptest.RandomValuePDF(rng, 7, 3)
		weights := make([]float64, 7)
		for i := range weights {
			weights[i] = rng.Float64() * 2
		}
		o, err := hist.NewWorkloadSSE(src, weights)
		if err != nil {
			t.Fatal(err)
		}
		for B := 1; B <= 3; B++ {
			h, err := hist.OptimalPool(o, B, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForceOptimal(o, B)
			if math.Abs(h.Cost-want) > 1e-8*(1+want) {
				t.Fatalf("trial %d B=%d: DP %v, brute force %v", trial, B, h.Cost, want)
			}
		}
	}
}

func TestWorkloadSSEArgumentErrors(t *testing.T) {
	src := pdata.Deterministic([]float64{1, 2})
	if _, err := hist.NewWorkloadSSE(src, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := hist.NewWorkloadSSE(src, []float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
}
