package wavelet_test

// Sweep frontier tests: one DP run must serve every budget b <= B with
// exactly the synopsis (coefficients, values, cost — bit-identical) an
// independent budget-b build produces, for the restricted, unrestricted,
// and greedy-SSE families, at several worker counts and on the degenerate
// one- and two-item domains.

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"probsyn/internal/gen"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
	"probsyn/internal/wavelet"
)

// sweepFamilies enumerates the sweep constructors next to their
// single-budget builders, so every test covers all three families.
type sweepFamily struct {
	name  string
	sweep func(src pdata.Source, B int, workers int) (*wavelet.Sweep, error)
	build func(src pdata.Source, B int, workers int) (*wavelet.Synopsis, float64, error)
}

func families() []sweepFamily {
	p := metric.Params{C: 0.5}
	return []sweepFamily{
		{
			name: "restricted",
			sweep: func(src pdata.Source, B, workers int) (*wavelet.Sweep, error) {
				return wavelet.NewSweep(src, wavelet.RestrictedFamily, metric.SAE, p, B, 0, finePool(workers))
			},
			build: func(src pdata.Source, B, workers int) (*wavelet.Synopsis, float64, error) {
				return wavelet.BuildRestrictedPool(src, metric.SAE, p, B, finePool(workers))
			},
		},
		{
			name: "unrestricted",
			sweep: func(src pdata.Source, B, workers int) (*wavelet.Sweep, error) {
				return wavelet.NewSweep(src, wavelet.UnrestrictedFamily, metric.SARE, p, B, 2, finePool(workers))
			},
			build: func(src pdata.Source, B, workers int) (*wavelet.Synopsis, float64, error) {
				return wavelet.BuildUnrestrictedPool(src, metric.SARE, p, B, 2, finePool(workers))
			},
		},
		{
			name: "sse",
			sweep: func(src pdata.Source, B, _ int) (*wavelet.Sweep, error) {
				return wavelet.NewSweep(src, wavelet.SSEFamily, metric.SSE, metric.Params{}, B, 0, nil)
			},
			build: func(src pdata.Source, B, _ int) (*wavelet.Synopsis, float64, error) {
				syn, _, err := wavelet.BuildSSE(src, B)
				if err != nil {
					return nil, 0, err
				}
				return syn, syn.Cost, nil
			},
		},
	}
}

func TestSweepMatchesIndependentBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sources := map[string]pdata.Source{
		"value": ptest.RandomValuePDF(rng, 16, 3),
		"basic": ptest.RandomBasic(rng, 16, 20),
	}
	const B = 16
	for _, fam := range families() {
		for srcName, src := range sources {
			for _, workers := range []int{1, 2, runtime.NumCPU()} {
				sw, err := fam.sweep(src, B, workers)
				if err != nil {
					t.Fatalf("%s/%s: sweep: %v", fam.name, srcName, err)
				}
				if sw.Bmax() != B {
					t.Fatalf("%s/%s: Bmax = %d, want %d", fam.name, srcName, sw.Bmax(), B)
				}
				prev := 0.0
				for b := 1; b <= B; b++ {
					got, err := sw.Synopsis(b)
					if err != nil {
						t.Fatalf("%s/%s: Synopsis(%d): %v", fam.name, srcName, b, err)
					}
					// Independent builds run serial: the sweep's parallel
					// schedule must not change a single bit.
					want, cost, err := fam.build(src, b, 1)
					if err != nil {
						t.Fatalf("%s/%s: build(%d): %v", fam.name, srcName, b, err)
					}
					label := fam.name + "/" + srcName
					synopsesIdentical(t, label, want, got, cost, got.Cost)
					if sw.Cost(b) != cost {
						t.Fatalf("%s: Cost(%d) = %v, independent build cost %v", label, b, sw.Cost(b), cost)
					}
					if b > 1 && sw.Cost(b) > prev {
						t.Fatalf("%s: frontier not non-increasing: Cost(%d)=%v > Cost(%d)=%v",
							label, b, sw.Cost(b), b-1, prev)
					}
					prev = sw.Cost(b)
				}
			}
		}
	}
}

// TestSweepTinyDomains exercises the n == 1 and n == 2 special paths of
// every family.
func TestSweepTinyDomains(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2} {
		src := ptest.RandomValuePDF(rng, n, 3)
		for _, fam := range families() {
			sw, err := fam.sweep(src, n, 1)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, fam.name, err)
			}
			if sw.Bmax() != n {
				t.Fatalf("n=%d %s: Bmax = %d, want %d", n, fam.name, sw.Bmax(), n)
			}
			for b := 1; b <= n; b++ {
				got, err := sw.Synopsis(b)
				if err != nil {
					t.Fatal(err)
				}
				want, cost, err := fam.build(src, b, 1)
				if err != nil {
					t.Fatal(err)
				}
				synopsesIdentical(t, fam.name, want, got, cost, got.Cost)
			}
		}
	}
}

// TestSweepBudgetValidation: out-of-range extraction budgets error
// instead of clamping silently; Cost clamps like hist.DPTable.
func TestSweepBudgetValidation(t *testing.T) {
	src := ptest.RandomValuePDF(rand.New(rand.NewSource(3)), 8, 3)
	sw, err := wavelet.NewSweep(src, wavelet.RestrictedFamily, metric.SAE, metric.Params{C: 0.5}, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{0, -1, 5} {
		if _, err := sw.Synopsis(b); err == nil {
			t.Fatalf("Synopsis(%d) succeeded, want range error", b)
		}
	}
	if sw.Cost(99) != sw.Cost(4) || sw.Cost(-3) != sw.Cost(1) {
		t.Fatal("Cost should clamp out-of-range budgets")
	}
	if _, err := wavelet.NewSweep(src, wavelet.RestrictedFamily, metric.SAE, metric.Params{C: 0.5}, -1, 0, nil); err == nil {
		t.Fatal("negative sweep budget accepted")
	}
	// A zero-budget sweep (built internally by Build* at B=0) has the one
	// budget 0 and must still answer Cost without panicking.
	zero, err := wavelet.NewSweep(src, wavelet.RestrictedFamily, metric.SAE, metric.Params{C: 0.5}, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Bmax() != 0 {
		t.Fatalf("zero sweep Bmax = %d", zero.Bmax())
	}
	_, emptyCost, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 0.5}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := zero.Cost(1); got != emptyCost {
		t.Fatalf("zero sweep Cost = %v, empty build cost %v", got, emptyCost)
	}
	if _, err := zero.Synopsis(1); err == nil {
		t.Fatal("zero sweep Synopsis(1) succeeded, want range error")
	}
	if empty, err := zero.Synopsis(0); err != nil || empty.Terms() != 0 || empty.Cost != emptyCost {
		t.Fatalf("zero sweep Synopsis(0) = %+v, %v; want the empty synopsis at cost %v", empty, err, emptyCost)
	}
	if _, err := wavelet.NewSweep(src, wavelet.UnrestrictedFamily, metric.SAE, metric.Params{C: 0.5}, 4, -1, nil); err == nil {
		t.Fatal("negative quantization accepted")
	}
}

// TestSweepLazyCurveConcurrent: the cost curve is computed by whichever
// Cost call comes first, while other goroutines extract; run under -race.
// Every Cost(b) must be the bits of Synopsis(b).Cost and of an independent
// budget-b build, exact and quantized.
func TestSweepLazyCurveConcurrent(t *testing.T) {
	p := metric.Params{C: 0.5}
	src := ptest.RandomFractionalValuePDF(rand.New(rand.NewSource(29)), 64, 4)
	const B = 10
	for _, q := range []int{0, 4} {
		sw, err := wavelet.NewSweep(src, wavelet.RestrictedFamily, metric.SAE, p, B, q, finePool(2))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, B+1)
		for b := 1; b <= B; b++ {
			if _, want[b], err = wavelet.BuildRestrictedPool(src, metric.SAE, p, b, nil); q > 0 {
				_, want[b], err = wavelet.BuildRestrictedApproxPool(src, metric.SAE, p, b, q, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < B; k++ {
					b := 1 + (k+g)%B
					if g%4 == 3 { // a reader walking the whole frontier beside the others
						for e := 1; e <= B; e++ {
							if _, err := sw.Synopsis(e); err != nil {
								t.Errorf("q=%d: Synopsis(%d): %v", q, e, err)
								return
							}
						}
					}
					syn, err := sw.Synopsis(b)
					if err != nil {
						t.Errorf("q=%d: Synopsis(%d): %v", q, b, err)
						return
					}
					got := math.Float64bits(sw.Cost(b))
					if got != math.Float64bits(syn.Cost) || got != math.Float64bits(want[b]) {
						t.Errorf("q=%d: Cost(%d) = %v, Synopsis(%d).Cost = %v, independent build %v", q, b, sw.Cost(b), b, syn.Cost, want[b])
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestSweepSynopsisAllocations pins an extraction's allocation count to a
// bound that does not grow with the domain: the backtrack visits O(b log n)
// nodes and allocates at none of them (the last internal level's leaf rows
// live on the stack), and a quantized extraction's exact re-pricing
// reconstructs in two arrays.
func TestSweepSynopsisAllocations(t *testing.T) {
	p := metric.Params{C: 0.5}
	const B, bound = 8, 12
	for _, q := range []int{0, 8} {
		for _, n := range []int{64, 256} {
			src := gen.SensorGrid(rand.New(rand.NewSource(int64(n))), gen.DefaultSensor(n))
			sw, err := wavelet.NewSweep(src, wavelet.RestrictedFamily, metric.SAE, p, B, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			var terms int
			allocs := testing.AllocsPerRun(20, func() {
				syn, err := sw.Synopsis(B)
				if err != nil {
					t.Fatal(err)
				}
				terms = syn.Terms()
			})
			t.Logf("q=%d n=%d: %.0f allocations per Synopsis(%d) of %d terms", q, n, allocs, B, terms)
			if allocs > bound {
				t.Fatalf("q=%d n=%d: Synopsis(%d) allocates %.0f times, want <= %d at every n", q, n, B, allocs, bound)
			}
		}
	}
}
