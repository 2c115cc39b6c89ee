package wavelet_test

// White-box-adjacent tests that the parallel wavelet DP schedule is
// bit-identical to the serial one: same cost (exact float equality), same
// retained coefficient indices, same stored values, at parallelism 1, 2,
// and NumCPU. Run under -race this also exercises the engine pool inside
// the level sweeps for data races.

import (
	"math/rand"
	"runtime"
	"testing"

	"probsyn/internal/engine"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
	"probsyn/internal/wavelet"
)

// finePool returns a pool whose grain is low enough that small test
// domains actually take the parallel level sweeps.
func finePool(workers int) *engine.Pool {
	return engine.New(engine.Options{Workers: workers, Grain: 1})
}

// synopsesIdentical asserts two synopses are bit-identical.
func synopsesIdentical(t *testing.T, label string, serial, par *wavelet.Synopsis, cs, cp float64) {
	t.Helper()
	if cs != cp {
		t.Fatalf("%s: cost %v != serial %v (not bit-identical)", label, cp, cs)
	}
	if serial.N != par.N || serial.Cost != par.Cost {
		t.Fatalf("%s: (N=%d, Cost=%v) != serial (N=%d, Cost=%v)", label, par.N, par.Cost, serial.N, serial.Cost)
	}
	if len(serial.Indices) != len(par.Indices) {
		t.Fatalf("%s: %d coefficients != serial %d", label, len(par.Indices), len(serial.Indices))
	}
	for k := range serial.Indices {
		if serial.Indices[k] != par.Indices[k] || serial.Values[k] != par.Values[k] {
			t.Fatalf("%s: coefficient %d is (%d, %v), serial (%d, %v)",
				label, k, par.Indices[k], par.Values[k], serial.Indices[k], serial.Values[k])
		}
	}
}

func TestBuildRestrictedPoolBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	workerCounts := []int{1, 2, runtime.NumCPU(), 0}
	sources := map[string]pdata.Source{
		"value": ptest.RandomValuePDF(rng, 16, 3),
		"tuple": ptest.RandomTuplePDF(rng, 16, 24, 3),
		"basic": ptest.RandomBasic(rng, 16, 20),
	}
	for srcName, src := range sources {
		for _, k := range []metric.Kind{metric.SSRE, metric.SAE, metric.SARE, metric.MAE, metric.MARE} {
			for _, B := range []int{0, 1, 4, 9} {
				serial, cs, err := wavelet.BuildRestrictedPool(src, k, metric.Params{C: 0.5}, B, nil)
				if err != nil {
					t.Fatalf("%s/%v B=%d serial: %v", srcName, k, B, err)
				}
				for _, w := range workerCounts {
					par, cp, err := wavelet.BuildRestrictedPool(src, k, metric.Params{C: 0.5}, B, finePool(w))
					if err != nil {
						t.Fatalf("%s/%v B=%d workers=%d: %v", srcName, k, B, w, err)
					}
					synopsesIdentical(t, srcName+"/"+k.String(), serial, par, cs, cp)
				}
			}
		}
	}
}

// The Workers entry points at the default grain must agree with serial
// too (they fall back to serial sweeps on small domains, but the whole
// build must still be deterministic end to end).
func TestBuildRestrictedWorkersDefaultGrain(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	src := ptest.RandomValuePDF(rng, 32, 3)
	serial, cs, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 0.5}, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, cp, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 0.5}, 6, engine.New(engine.Options{Workers: 0}))
	if err != nil {
		t.Fatal(err)
	}
	synopsesIdentical(t, "default-grain", serial, par, cs, cp)
}

// Non-power-of-two domains pad; the padded DP must stay deterministic and
// the tiny-domain special cases must not regress across worker counts.
func TestBuildRestrictedPoolTinyDomains(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for n := 1; n <= 6; n++ {
		src := ptest.RandomValuePDF(rng, n, 3)
		for B := 0; B <= n+1; B++ {
			serial, cs, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 0.5}, B, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, runtime.NumCPU()} {
				par, cp, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 0.5}, B, finePool(w))
				if err != nil {
					t.Fatal(err)
				}
				synopsesIdentical(t, "tiny", serial, par, cs, cp)
			}
		}
	}
}
