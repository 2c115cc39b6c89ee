package wavelet_test

import (
	"math"
	"math/rand"
	"testing"

	"probsyn/internal/haar"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
	"probsyn/internal/wavelet"
)

func TestSynopsisValidate(t *testing.T) {
	good := &wavelet.Synopsis{N: 8, Indices: []int{0, 3}, Values: []float64{1, 2}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*wavelet.Synopsis{
		{N: 6, Indices: []int{0}, Values: []float64{1}},          // non-pow2 domain
		{N: 8, Indices: []int{0, 0}, Values: []float64{1, 2}},    // duplicate
		{N: 8, Indices: []int{3, 1}, Values: []float64{1, 2}},    // unsorted
		{N: 8, Indices: []int{9}, Values: []float64{1}},          // out of range
		{N: 8, Indices: []int{1}, Values: []float64{1, 2}},       // length mismatch
		{N: 8, Indices: []int{1}, Values: []float64{math.NaN()}}, // numbers JSON cannot write
		{N: 8, Indices: []int{0, 1}, Values: []float64{1, math.Inf(1)}},
		{N: 8, Indices: []int{1}, Values: []float64{1}, Cost: math.Inf(-1)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid synopsis accepted", i)
		}
	}
}

func TestSynopsisEstimateMatchesReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	data := make([]float64, 16)
	for i := range data {
		data[i] = rng.NormFloat64() * 10
	}
	c := haar.Forward(data)
	syn := &wavelet.Synopsis{N: 16, Indices: []int{0, 1, 5, 9, 15}, Values: nil}
	for _, idx := range syn.Indices {
		syn.Values = append(syn.Values, c[idx])
	}
	rec := syn.Reconstruct()
	for i := 0; i < 16; i++ {
		if got := syn.Estimate(i); math.Abs(got-rec[i]) > 1e-10 {
			t.Fatalf("Estimate(%d) = %v, Reconstruct = %v", i, got, rec[i])
		}
	}
}

func TestSynopsisRangeSum(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	data := make([]float64, 8)
	for i := range data {
		data[i] = rng.Float64() * 5
	}
	c := haar.Forward(data)
	syn := &wavelet.Synopsis{N: 8, Indices: []int{0, 1, 2, 6}, Values: nil}
	for _, idx := range syn.Indices {
		syn.Values = append(syn.Values, c[idx])
	}
	rec := syn.Reconstruct()
	for lo := 0; lo < 8; lo++ {
		for hi := lo; hi < 8; hi++ {
			want := 0.0
			for i := lo; i <= hi; i++ {
				want += rec[i]
			}
			if got := syn.RangeSum(lo, hi); math.Abs(got-want) > 1e-10 {
				t.Fatalf("RangeSum(%d,%d) = %v, want %v", lo, hi, got, want)
			}
		}
	}
	if got := syn.RangeSum(-5, 100); math.Abs(got-syn.RangeSum(0, 7)) > 1e-12 {
		t.Fatalf("clamped RangeSum = %v", got)
	}
}

func TestFullSynopsisReconstructsExactly(t *testing.T) {
	data := []float64{2, 2, 0, 2, 3, 5, 4, 4}
	c := haar.Forward(data)
	idx := make([]int, len(c))
	for i := range idx {
		idx[i] = i
	}
	syn := &wavelet.Synopsis{N: 8, Indices: idx, Values: c}
	rec := syn.Reconstruct()
	for i := range data {
		if math.Abs(rec[i]-data[i]) > 1e-12 {
			t.Fatalf("rec[%d] = %v, want %v", i, rec[i], data[i])
		}
	}
}

// --- SSE-optimal synopses (Theorem 7) ---------------------------------------

func TestBuildSSEReportConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 10; trial++ {
		for _, src := range []pdata.Source{
			ptest.RandomValuePDF(rng, 8, 3),
			ptest.RandomTuplePDF(rng, 8, 5, 3),
			ptest.RandomBasic(rng, 8, 6),
		} {
			for _, B := range []int{0, 1, 3, 8} {
				syn, rep, err := wavelet.BuildSSE(src, B)
				if err != nil {
					t.Fatal(err)
				}
				if err := syn.Validate(); err != nil {
					t.Fatal(err)
				}
				if syn.B() != B {
					t.Fatalf("retained %d coefficients, want %d", syn.B(), B)
				}
				direct := wavelet.ExpectedSSEOf(src, syn)
				if math.Abs(rep.ExpectedSSE-direct) > 1e-8*(1+direct) {
					t.Fatalf("%T B=%d: report SSE %v, direct %v", src, B, rep.ExpectedSSE, direct)
				}
				if rep.ErrorPercent() < -1e-9 || rep.ErrorPercent() > 100+1e-9 {
					t.Fatalf("error percent %v outside [0,100]", rep.ErrorPercent())
				}
			}
		}
	}
}

func TestBuildSSEAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 10; trial++ {
		src := ptest.RandomTuplePDF(rng, 4, 4, 2)
		syn, rep, err := wavelet.BuildSSE(src, 2)
		if err != nil {
			t.Fatal(err)
		}
		rec := syn.Reconstruct()
		want := 0.0
		src.EnumerateWorlds(func(freqs []float64, prob float64) bool {
			for i := range freqs {
				d := freqs[i] - rec[i]
				want += prob * d * d
			}
			return true
		})
		if math.Abs(rep.ExpectedSSE-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: report %v, enumeration %v", trial, rep.ExpectedSSE, want)
		}
	}
}

// Theorem 7 optimality: at every budget, no other same-size subset of
// expected-value coefficients achieves lower expected SSE. Stored
// coefficients are fixed, so this is also the SSE-fixed optimum, which
// is why a wavelet has no SSE-fixed build of its own.
func TestBuildSSEOptimalAmongSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 8; trial++ {
		src := ptest.RandomValuePDF(rng, 8, 3)
		expected := src.ExpectedFreqs()
		c := haar.Forward(expected)
		for B := 0; B <= 8; B++ {
			syn, _, err := wavelet.BuildSSE(src, B)
			if err != nil {
				t.Fatal(err)
			}
			best := wavelet.ExpectedSSEOf(src, syn)
			for mask := 0; mask < 1<<8; mask++ {
				if popcount(mask) != B {
					continue
				}
				var idx []int
				var vals []float64
				for i := 0; i < 8; i++ {
					if mask&(1<<i) != 0 {
						idx = append(idx, i)
						vals = append(vals, c[i])
					}
				}
				alt := wavelet.ExpectedSSEOf(src, &wavelet.Synopsis{N: 8, Indices: idx, Values: vals})
				if alt < best-1e-9 {
					t.Fatalf("trial %d B=%d: subset %b (SSE %v) beats TopK (SSE %v)", trial, B, mask, alt, best)
				}
			}
		}
	}
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		c += x & 1
		x >>= 1
	}
	return c
}

func TestBuildSSEDeterministicReduction(t *testing.T) {
	data := []float64{2, 2, 0, 2, 3, 5, 4, 4}
	src := pdata.Deterministic(data)
	syn, rep, err := wavelet.BuildSSE(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VarianceFloor > 1e-12 {
		t.Fatalf("deterministic variance floor %v, want 0", rep.VarianceFloor)
	}
	if rep.ExpectedSSE > 1e-9 {
		t.Fatalf("full synopsis SSE %v, want 0", rep.ExpectedSSE)
	}
	rec := syn.Reconstruct()
	for i := range data {
		if math.Abs(rec[i]-data[i]) > 1e-10 {
			t.Fatalf("rec[%d] = %v, want %v", i, rec[i], data[i])
		}
	}
}

func TestBuildSSEPadsNonPow2(t *testing.T) {
	src := pdata.Deterministic([]float64{1, 2, 3, 4, 5})
	syn, _, err := wavelet.BuildSSE(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	if syn.N != 8 {
		t.Fatalf("padded domain %d, want 8", syn.N)
	}
}

func TestBuildSSERejectsNegativeBudget(t *testing.T) {
	if _, _, err := wavelet.BuildSSE(pdata.Deterministic([]float64{1}), -1); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// --- point errors and the restricted DP (Theorem 8) --------------------------

func TestPointErrorsAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	p := metric.Params{C: 0.5}
	kinds := []metric.Kind{metric.SSRE, metric.SAE, metric.SARE, metric.MAE, metric.MARE}
	for trial := 0; trial < 8; trial++ {
		vp := ptest.RandomValuePDF(rng, 4, 3)
		for _, k := range kinds {
			pe, err := wavelet.NewPointErrors(vp, k, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []float64{0, 0.5, 1, 1.7, 3, -0.4} {
				want := ptest.PerItemExpectedErrors(vp, k, p, v)
				for i := 0; i < 4; i++ {
					if got := pe.Err(i, v); math.Abs(got-want[i]) > 1e-9 {
						t.Fatalf("%v trial %d: Err(%d, %v) = %v, enum %v", k, trial, i, v, got, want[i])
					}
				}
			}
		}
	}
}

// SSE and SSE-fixed are the greedy's (BuildSSE), not the restricted DP's.
func TestPointErrorsRejectsSSE(t *testing.T) {
	vp := pdata.Deterministic([]float64{1, 2})
	for _, k := range []metric.Kind{metric.SSE, metric.SSEFixed} {
		if _, err := wavelet.NewPointErrors(vp, k, metric.Params{}); err == nil {
			t.Fatalf("PointErrors accepted %v", k)
		}
	}
}

func TestBuildRestrictedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	p := metric.Params{C: 0.5}
	kinds := []metric.Kind{metric.SSRE, metric.SAE, metric.SARE, metric.MAE}
	for trial := 0; trial < 6; trial++ {
		src := ptest.RandomValuePDF(rng, 8, 3)
		c := haar.Forward(src.ExpectedFreqs())
		for _, k := range kinds {
			pe, err := wavelet.NewPointErrors(src, k, p)
			if err != nil {
				t.Fatal(err)
			}
			for B := 0; B <= 3; B++ {
				syn, got, err := wavelet.BuildRestrictedPool(src, k, p, B, nil)
				if err != nil {
					t.Fatal(err)
				}
				if syn.B() > B {
					t.Fatalf("%v B=%d: retained %d coefficients", k, B, syn.B())
				}
				if direct := pe.SynopsisError(syn); math.Abs(direct-got) > 1e-8*(1+got) {
					t.Fatalf("%v B=%d: DP reports %v but synopsis evaluates to %v", k, B, got, direct)
				}
				// brute force over all subsets of size <= B
				best := math.Inf(1)
				for mask := 0; mask < 1<<8; mask++ {
					if popcount(mask) > B {
						continue
					}
					var idx []int
					var vals []float64
					for i := 0; i < 8; i++ {
						if mask&(1<<i) != 0 {
							idx = append(idx, i)
							vals = append(vals, c[i])
						}
					}
					alt := pe.SynopsisError(&wavelet.Synopsis{N: 8, Indices: idx, Values: vals})
					if alt < best {
						best = alt
					}
				}
				if math.Abs(got-best) > 1e-8*(1+best) {
					t.Fatalf("%v trial %d B=%d: DP %v, brute force %v", k, trial, B, got, best)
				}
			}
		}
	}
}

func TestBuildRestrictedMonotoneInBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	src := ptest.RandomValuePDF(rng, 8, 3)
	p := metric.Params{C: 0.5}
	prev := math.Inf(1)
	for B := 0; B <= 8; B++ {
		_, got, err := wavelet.BuildRestrictedPool(src, metric.SAE, p, B, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got > prev+1e-9 {
			t.Fatalf("B=%d: error %v above B=%d error %v", B, got, B-1, prev)
		}
		prev = got
	}
}

func TestBuildRestrictedTinyDomain(t *testing.T) {
	src := pdata.Deterministic([]float64{3})
	syn, got, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got > 1e-12 || syn.B() != 1 {
		t.Fatalf("n=1 with budget: error %v, B %d", got, syn.B())
	}
	_, got0, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 1}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got0-3) > 1e-12 {
		t.Fatalf("n=1 without budget: error %v, want 3", got0)
	}
}

func TestBuildRestrictedRejectsNegativeBudget(t *testing.T) {
	if _, _, err := wavelet.BuildRestrictedPool(pdata.Deterministic([]float64{1}), metric.SAE, metric.Params{}, -1, nil); err == nil {
		t.Fatal("negative budget accepted")
	}
}
