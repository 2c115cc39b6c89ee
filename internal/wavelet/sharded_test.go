package wavelet_test

// Sharded-build correctness: the DP-family merge must cost at least the
// unsharded optimum and at most optimum + Bound and price its merged
// synopsis exactly, and everything must be bit-identical across fan
// concurrency, worker counts, and budgets. (A sharded SSE build is the
// unsharded greedy: the root package's TestBuildShardsSSEWaveletBitIdentical.)

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"probsyn/internal/metric"
	"probsyn/internal/ptest"
	"probsyn/internal/wavelet"
)

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestShardedRestrictedWithinBoundOfOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	p := metric.Params{C: 0.5}
	src := ptest.RandomValuePDF(rng, 32, 3)
	for _, kind := range []metric.Kind{metric.SAE, metric.SSEFixed, metric.MAE} {
		for _, k := range []int{2, 4} {
			for _, B := range []int{k, 8, 16} {
				res, err := wavelet.BuildShardedRestricted(src, kind, p, B, k, finePool(2), 2)
				if err != nil {
					t.Fatalf("%v k=%d B=%d: %v", kind, k, B, err)
				}
				if err := res.Merged.Validate(); err != nil {
					t.Fatalf("%v k=%d B=%d: merged invalid: %v", kind, k, B, err)
				}
				if got := len(res.Merged.Indices); got > B {
					t.Fatalf("%v k=%d B=%d: merged has %d terms", kind, k, B, got)
				}
				_, opt, err := wavelet.BuildRestrictedPool(src, kind, p, B, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Merged.Cost < opt && !relClose(res.Merged.Cost, opt, 1e-9) {
					t.Fatalf("%v k=%d B=%d: sharded cost %v below optimum %v", kind, k, B, res.Merged.Cost, opt)
				}
				if res.Merged.Cost > opt+res.Bound && !relClose(res.Merged.Cost, opt+res.Bound, 1e-9) {
					t.Fatalf("%v k=%d B=%d: sharded cost %v exceeds optimum %v + bound %v",
						kind, k, B, res.Merged.Cost, opt, res.Bound)
				}
				// The reported cost is the true expected error of the
				// merged synopsis (up to summation order).
				pe, err := wavelet.NewPointErrors(src, kind, p)
				if err != nil {
					t.Fatal(err)
				}
				if truth := pe.SynopsisError(res.Merged); !relClose(truth, res.Merged.Cost, 1e-9) {
					t.Fatalf("%v k=%d B=%d: merged cost %v but exact evaluation %v",
						kind, k, B, res.Merged.Cost, truth)
				}
			}
		}
	}
}

// TestShardedRestrictedDeterministic: fan concurrency, pool workers, and
// (by slot-indexed merging) shard completion order cannot change a bit.
func TestShardedRestrictedDeterministic(t *testing.T) {
	src := ptest.RandomValuePDF(rand.New(rand.NewSource(7)), 64, 3)
	p := metric.Params{C: 0.5}
	base, err := wavelet.BuildShardedRestricted(src, metric.SAE, p, 12, 4, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		for _, conc := range []int{1, 2, 4} {
			res, err := wavelet.BuildShardedRestricted(src, metric.SAE, p, 12, 4, finePool(workers), conc)
			if err != nil {
				t.Fatal(err)
			}
			synopsesIdentical(t, "sharded-restricted", base.Merged, res.Merged, base.Merged.Cost, res.Merged.Cost)
			if res.Bound != base.Bound {
				t.Fatalf("workers=%d conc=%d: bound %v != %v", workers, conc, res.Bound, base.Bound)
			}
		}
	}
}

// TestShardedRestrictedMergedCostIsExact: the cost a sharded restricted
// build reports is the true expected error of the synopsis it merged, for
// every DP metric, so a merge that put a shard's coefficients in the wrong
// place of the global tree cannot pass.
func TestShardedRestrictedMergedCostIsExact(t *testing.T) {
	p := metric.Params{C: 0.5}
	for _, kind := range []metric.Kind{metric.SSEFixed, metric.SSRE, metric.SAE, metric.SARE, metric.MAE, metric.MARE} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for _, n := range []int{16, 32, 64} {
				src := ptest.RandomValuePDF(rng, n, 3)
				pe, err := wavelet.NewPointErrors(src, kind, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{2, 4, 8} {
					for _, B := range []int{k, k + 3, 2*k + 1} {
						res, err := wavelet.BuildShardedRestricted(src, kind, p, B, k, nil, 2)
						if err != nil {
							t.Fatalf("n=%d k=%d B=%d: %v", n, k, B, err)
						}
						if truth := pe.SynopsisError(res.Merged); !relClose(truth, res.Merged.Cost, 1e-9) {
							t.Fatalf("n=%d k=%d B=%d: merged cost %v but exact evaluation %v",
								n, k, B, res.Merged.Cost, truth)
						}
					}
				}
			}
		})
	}
}

func TestShardedArgumentErrors(t *testing.T) {
	src := ptest.RandomValuePDF(rand.New(rand.NewSource(3)), 16, 2)
	p := metric.Params{C: 0.5}
	if _, err := wavelet.BuildShardedRestricted(src, metric.SAE, p, 3, 4, nil, 1); err == nil {
		t.Fatal("B < k accepted by the sharded restricted build")
	}
	if _, err := wavelet.BuildShardedRestricted(src, metric.SAE, p, 4, 1, nil, 1); err == nil {
		t.Fatal("k=1 accepted by the sharded merge")
	}
}
