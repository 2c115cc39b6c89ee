package hist_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

// Property (§3.5, condition 4): bucket costs are monotone under extension —
// the error of any interval is at least the error of any contained
// subinterval. The approximation algorithm's correctness depends on it.
func TestQuickOracleMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := ptest.RandomTuplePDF(rng, 8, 6, 3)
		p := metric.Params{C: 0.5}
		for _, k := range []metric.Kind{metric.SSE, metric.SSEFixed, metric.SSRE,
			metric.SAE, metric.SARE, metric.MAE, metric.MARE} {
			o, err := hist.NewOracle(src, k, p)
			if err != nil {
				return false
			}
			for s := 0; s < 8; s++ {
				for e := s; e < 8; e++ {
					outer, _ := o.Cost(s, e)
					for s2 := s; s2 <= e; s2++ {
						for e2 := s2; e2 <= e; e2++ {
							inner, _ := o.Cost(s2, e2)
							if inner > outer+1e-9*(1+outer) {
								t.Logf("%v: cost[%d,%d]=%v > cost[%d,%d]=%v", k, s2, e2, inner, s, e, outer)
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the DP optimum is a lower bound on the cost of any random
// bucketing assembled from the same oracle.
func TestQuickDPLowerBoundsRandomBucketings(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := ptest.RandomValuePDF(rng, 10, 3)
		o := hist.NewSSEValue(src)
		B := 1 + rng.Intn(5)
		opt, err := hist.OptimalPool(o, B, nil)
		if err != nil {
			return false
		}
		// random bucketing with exactly B buckets
		starts := []int{0}
		perm := rng.Perm(9)
		for _, x := range perm[:B-1] {
			starts = append(starts, x+1)
		}
		sortInts(starts)
		h, err := hist.FromBoundaries(o, starts)
		if err != nil {
			return false
		}
		return h.Cost >= opt.Cost-1e-9*(1+opt.Cost)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: oracle costs are invariant under representation of the same
// distribution — a basic model and its single-alternative tuple pdf price
// every bucket identically under every metric.
func TestQuickModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := ptest.RandomBasic(rng, 6, 7)
		tp := b.TuplePDF()
		p := metric.Params{C: 0.5}
		for _, k := range []metric.Kind{metric.SSE, metric.SSRE, metric.SAE, metric.MARE} {
			ob, err := hist.NewOracle(b, k, p)
			if err != nil {
				return false
			}
			ot, err := hist.NewOracle(tp, k, p)
			if err != nil {
				return false
			}
			for s := 0; s < 6; s++ {
				for e := s; e < 6; e++ {
					cb, _ := ob.Cost(s, e)
					ct, _ := ot.Cost(s, e)
					if diff := cb - ct; diff > 1e-9 || diff < -1e-9 {
						t.Logf("%v: basic %v vs tuple %v at [%d,%d]", k, cb, ct, s, e)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: singleton buckets cost zero under the clairvoyant SSE (Eq. 5)
// and equal the item's variance under fixed-representative SSE.
func TestQuickSingletonBucketCosts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := ptest.RandomValuePDF(rng, 6, 3)
		mom := pdata.MomentsOf(src)
		oE := hist.NewSSEValue(src)
		oF := hist.NewSSEFixed(src)
		for i := 0; i < 6; i++ {
			c, _ := oE.Cost(i, i)
			if c > 1e-12 {
				return false
			}
			cf, _ := oF.Cost(i, i)
			if d := cf - mom.Var[i]; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
