package hist_test

import (
	"math"
	"math/rand"
	"testing"

	"probsyn/internal/gen"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/numeric"
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

// TestWorkloadSSEUniformReducesToSSEFixed: under unit weights the workload
// oracle, NewSSEFixed and SSE-fixed's closed form Σ E[g²] − (Σ E[g])²/n_b
// (rep Σ E[g]/n_b) price every bucket to the same bits, over value, tuple
// and basic sources. One Quadratic serves both because a prefix of ones is
// exact: Z is n_b, and the z <= 0 guard never fires.
func TestWorkloadSSEUniformReducesToSSEFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for name, src := range map[string]pdata.Source{
		"value": ptest.RandomValuePDF(rng, 300, 3),
		"tuple": ptest.RandomTuplePDF(rng, 300, 400, 3),
		"basic": gen.MystiQLinkage(rng, gen.DefaultMystiQ(512)),
	} {
		n := src.Domain()
		uniform := make([]float64, n)
		for i := range uniform {
			uniform[i] = 1
		}
		wo, err := hist.NewWorkloadSSE(src, uniform)
		if err != nil {
			t.Fatal(err)
		}
		fo := hist.NewSSEFixed(src)
		mom := pdata.MomentsOf(src)
		meanSq, mean := numeric.NewPrefix(mom.MeanSq), numeric.NewPrefix(mom.Mean)
		allBuckets(n, func(s, e int) {
			nb := float64(e - s + 1)
			sum := mean.Range(s, e)
			cc := meanSq.Range(s, e) - sum*sum/nb
			if cc < 0 {
				cc = 0
			}
			cr := sum / nb
			for how, o := range map[string]hist.Oracle{"workload": wo, "SSE-fixed": fo} {
				c, r := o.Cost(s, e)
				if math.Float64bits(c) != math.Float64bits(cc) || math.Float64bits(r) != math.Float64bits(cr) {
					t.Fatalf("%s [%d,%d]: %s prices (%v,%v), the closed form (%v,%v)", name, s, e, how, c, r, cc, cr)
				}
			}
		})
	}
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
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := hist.NewWorkloadSSE(src, []float64{1, bad}); err == nil {
			t.Errorf("weight %v accepted", bad)
		}
	}
}
