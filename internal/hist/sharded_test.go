package hist_test

// Sharded histogram builds: per-shard DPs recombined by the exact
// budget-allocation DP must cost at least the unsharded optimum, at
// most optimum + Bound, and be bit-identical at any fan concurrency.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"probsyn/internal/engine"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
	"probsyn/internal/shard"
)

func shardedOracles(t *testing.T, vp *pdata.ValuePDF, kind metric.Kind, p metric.Params, k int) ([]hist.Oracle, []int) {
	t.Helper()
	bounds := shard.Bounds(vp.N, k)
	oracles := make([]hist.Oracle, k)
	for s := 0; s < k; s++ {
		svp := &pdata.ValuePDF{N: bounds[s+1] - bounds[s], Items: vp.Items[bounds[s]:bounds[s+1]]}
		o, err := hist.NewOracle(svp, kind, p)
		if err != nil {
			t.Fatal(err)
		}
		oracles[s] = o
	}
	return oracles, bounds
}

func TestShardedHistWithinBoundOfOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	vp := ptest.RandomValuePDF(rng, 26, 3)
	p := metric.Params{C: 0.5}
	for _, kind := range []metric.Kind{metric.SSE, metric.SAE, metric.MAE} {
		full, err := hist.NewOracle(vp, kind, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 3, 4} {
			for _, B := range []int{k, 6, 12} {
				oracles, bounds := shardedOracles(t, vp, kind, p, k)
				res, err := hist.BuildSharded(oracles, bounds, B, nil, 2)
				if err != nil {
					t.Fatalf("%v k=%d B=%d: %v", kind, k, B, err)
				}
				if err := res.Merged.Validate(); err != nil {
					t.Fatalf("%v k=%d B=%d: merged invalid: %v", kind, k, B, err)
				}
				if got := res.Merged.B(); got > B {
					t.Fatalf("%v k=%d B=%d: merged has %d buckets", kind, k, B, got)
				}
				opt, err := hist.OptimalPool(full, B, nil)
				if err != nil {
					t.Fatal(err)
				}
				tol := 1e-9 * math.Max(1, opt.Cost)
				if res.Merged.Cost < opt.Cost-tol {
					t.Fatalf("%v k=%d B=%d: sharded cost %v below optimum %v", kind, k, B, res.Merged.Cost, opt.Cost)
				}
				if res.Merged.Cost > opt.Cost+res.Bound+tol {
					t.Fatalf("%v k=%d B=%d: sharded cost %v exceeds optimum %v + bound %v",
						kind, k, B, res.Merged.Cost, opt.Cost, res.Bound)
				}
				// The reported cost is the true combined cost of the
				// merged bucketing (up to summation association).
				var truth float64
				if full.Combine() == hist.Sum {
					for _, b := range res.Merged.Buckets {
						c, _ := full.Cost(b.Start, b.End)
						truth += c
					}
				} else {
					for _, b := range res.Merged.Buckets {
						if c, _ := full.Cost(b.Start, b.End); c > truth {
							truth = c
						}
					}
				}
				if math.Abs(truth-res.Merged.Cost) > 1e-9*math.Max(1, truth) {
					t.Fatalf("%v k=%d B=%d: merged cost %v but direct evaluation %v",
						kind, k, B, res.Merged.Cost, truth)
				}
			}
		}
	}
}

func TestShardedHistDeterministic(t *testing.T) {
	vp := ptest.RandomValuePDF(rand.New(rand.NewSource(67)), 40, 3)
	p := metric.Params{}
	oracles, bounds := shardedOracles(t, vp, metric.SSE, p, 4)
	base, err := hist.BuildSharded(oracles, bounds, 9, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, conc := range []int{2, 4} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			pool := engine.New(engine.Options{Workers: workers, Grain: 1})
			res, err := hist.BuildSharded(oracles, bounds, 9, pool, conc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Merged.Cost != base.Merged.Cost || res.Bound != base.Bound {
				t.Fatalf("conc=%d workers=%d: (cost, bound) = (%v, %v), want (%v, %v)",
					conc, workers, res.Merged.Cost, res.Bound, base.Merged.Cost, base.Bound)
			}
			if len(res.Merged.Buckets) != len(base.Merged.Buckets) {
				t.Fatalf("conc=%d: %d buckets, want %d", conc, len(res.Merged.Buckets), len(base.Merged.Buckets))
			}
			for i, b := range res.Merged.Buckets {
				if b != base.Merged.Buckets[i] {
					t.Fatalf("conc=%d: bucket %d = %+v, want %+v", conc, i, b, base.Merged.Buckets[i])
				}
			}
		}
	}
}

func TestShardedHistArgumentErrors(t *testing.T) {
	vp := ptest.RandomValuePDF(rand.New(rand.NewSource(5)), 12, 2)
	oracles, bounds := shardedOracles(t, vp, metric.SSE, metric.Params{}, 3)
	if _, err := hist.BuildSharded(oracles, bounds, 2, nil, 1); err == nil {
		t.Fatal("B < k accepted")
	}
	if _, err := hist.BuildSharded(oracles[:1], bounds[:2], 4, nil, 1); err == nil {
		t.Fatal("single shard accepted")
	}
	if _, err := hist.BuildSharded(oracles, bounds[:3], 4, nil, 1); err == nil {
		t.Fatal("mismatched boundary count accepted")
	}
	bad := append([]int(nil), bounds...)
	bad[1]++
	if _, err := hist.BuildSharded(oracles, bad, 4, nil, 1); err == nil {
		t.Fatal("oracle/boundary span mismatch accepted")
	}
}
