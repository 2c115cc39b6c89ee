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

// bruteForceOptimal enumerates every partition of [0,n) into exactly B
// contiguous buckets and returns the minimal combined cost.
func bruteForceOptimal(o hist.Oracle, B int) float64 {
	n := o.N()
	if B > n {
		B = n
	}
	best := math.Inf(1)
	var rec func(start, left int, acc float64)
	rec = func(start, left int, acc float64) {
		if left == 1 {
			c, _ := o.Cost(start, n-1)
			total := acc + c
			if o.Combine() == hist.Max {
				total = math.Max(acc, c)
			}
			if total < best {
				best = total
			}
			return
		}
		for end := start; end <= n-left; end++ {
			c, _ := o.Cost(start, end)
			next := acc + c
			if o.Combine() == hist.Max {
				next = math.Max(acc, c)
			}
			if next < best { // prune: costs are non-negative
				rec(end+1, left-1, next)
			}
		}
	}
	rec(0, B, 0)
	return best
}

func allOracles(t *testing.T, src pdata.Source) map[string]hist.Oracle {
	t.Helper()
	p := metric.Params{C: 0.5}
	out := make(map[string]hist.Oracle)
	for _, k := range []metric.Kind{metric.SSE, metric.SSEFixed, metric.SSRE,
		metric.SAE, metric.SARE, metric.MAE, metric.MARE} {
		o, err := hist.NewOracle(src, k, p)
		if err != nil {
			t.Fatalf("NewOracle(%v): %v", k, err)
		}
		out[k.String()] = o
	}
	return out
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 8; trial++ {
		for _, src := range []pdata.Source{
			ptest.RandomValuePDF(rng, 7, 3),
			ptest.RandomTuplePDF(rng, 7, 5, 3),
			ptest.RandomBasic(rng, 7, 6),
		} {
			for name, o := range allOracles(t, src) {
				for B := 1; B <= 4; B++ {
					h, err := hist.OptimalPool(o, B, nil)
					if err != nil {
						t.Fatalf("%s B=%d: %v", name, B, err)
					}
					if err := h.Validate(); err != nil {
						t.Fatalf("%s B=%d: invalid histogram: %v", name, B, err)
					}
					if got := h.B(); got != B {
						t.Fatalf("%s B=%d: histogram has %d buckets", name, B, got)
					}
					want := bruteForceOptimal(o, B)
					if math.Abs(h.Cost-want) > 1e-8*(1+want) {
						t.Fatalf("%s trial %d B=%d: DP cost %v, brute force %v",
							name, trial, B, h.Cost, want)
					}
				}
			}
		}
	}
}

func TestOptimalCostMonotoneInB(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	src := ptest.RandomTuplePDF(rng, 10, 8, 3)
	for name, o := range allOracles(t, src) {
		prev := math.Inf(1)
		for B := 1; B <= 10; B++ {
			h, err := hist.OptimalPool(o, B, nil)
			if err != nil {
				t.Fatal(err)
			}
			if h.Cost > prev+1e-9 {
				t.Fatalf("%s: cost increased from %v to %v at B=%d", name, prev, h.Cost, B)
			}
			prev = h.Cost
		}
	}
}

func TestOptimalBAtLeastN(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	src := ptest.RandomValuePDF(rng, 5, 2)
	o := hist.NewSSEValue(src)
	for _, B := range []int{5, 9} {
		h, err := hist.OptimalPool(o, B, nil)
		if err != nil {
			t.Fatal(err)
		}
		if h.B() != 5 {
			t.Fatalf("B=%d: got %d buckets, want 5 (one per item)", B, h.B())
		}
		for k, b := range h.Buckets {
			if b.Start != k || b.End != k {
				t.Fatalf("bucket %d = [%d,%d], want singleton", k, b.Start, b.End)
			}
		}
	}
}

func TestOptimalArgumentErrors(t *testing.T) {
	src := pdata.Deterministic([]float64{1, 2})
	o := hist.NewSSEValue(src)
	if _, err := hist.OptimalPool(o, 0, nil); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := hist.OptimalPool(o, -3, nil); err == nil {
		t.Error("negative B accepted")
	}
}

// On deterministic data the probabilistic machinery must reduce exactly to
// the classic V-optimal histogram: zero error with B >= number of distinct
// runs.
func TestDeterministicReduction(t *testing.T) {
	freqs := []float64{5, 5, 5, 1, 1, 9, 9, 9}
	o := hist.NewSSEValue(pdata.Deterministic(freqs))
	h, err := hist.OptimalPool(o, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cost > 1e-12 {
		t.Fatalf("V-optimal on 3-run data with B=3: cost %v, want 0", h.Cost)
	}
	wantStarts := []int{0, 3, 5}
	for k, b := range h.Buckets {
		if b.Start != wantStarts[k] {
			t.Fatalf("bucket %d starts at %d, want %d", k, b.Start, wantStarts[k])
		}
	}
	if h.Buckets[0].Rep != 5 || h.Buckets[1].Rep != 1 || h.Buckets[2].Rep != 9 {
		t.Fatalf("representatives wrong: %+v", h.Buckets)
	}
}

func TestHistogramEstimateAndRangeSum(t *testing.T) {
	h := &hist.Histogram{N: 6, Buckets: []hist.Bucket{
		{Start: 0, End: 1, Rep: 2},
		{Start: 2, End: 4, Rep: 5},
		{Start: 5, End: 5, Rep: 1},
	}}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	wants := []float64{2, 2, 5, 5, 5, 1}
	for i, w := range wants {
		if got := h.Estimate(i); got != w {
			t.Errorf("Estimate(%d) = %v, want %v", i, got, w)
		}
	}
	if got := h.RangeSum(0, 5); got != 2*2+3*5+1 {
		t.Errorf("RangeSum full = %v, want 20", got)
	}
	if got := h.RangeSum(1, 2); got != 2+5 {
		t.Errorf("RangeSum(1,2) = %v, want 7", got)
	}
	if got := h.RangeSum(-3, 99); got != 20 {
		t.Errorf("RangeSum clamped = %v, want 20", got)
	}
	if got := h.RangeSum(4, 2); got != 0 {
		t.Errorf("RangeSum empty range = %v, want 0", got)
	}
	// Out-of-domain estimates clamp explicitly to the edge buckets — the
	// documented library behavior (the server rejects such queries before
	// they reach the synopsis).
	if got := h.Estimate(-7); got != 2 {
		t.Errorf("Estimate(-7) = %v, want bucket 0's rep 2", got)
	}
	if got := h.Estimate(99); got != 1 {
		t.Errorf("Estimate(99) = %v, want last bucket's rep 1", got)
	}
}

func TestHistogramValidateRejectsBadShapes(t *testing.T) {
	cases := []hist.Histogram{
		{N: 3, Buckets: nil},
		{N: 3, Buckets: []hist.Bucket{{Start: 1, End: 2}}},                     // gap at front
		{N: 3, Buckets: []hist.Bucket{{Start: 0, End: 0}, {Start: 2, End: 2}}}, // hole
		{N: 3, Buckets: []hist.Bucket{{Start: 0, End: 1}}},                     // short
		{N: 3, Buckets: []hist.Bucket{{Start: 0, End: 2}, {Start: 2, End: 2}}}, // overlap
		{N: 0, Buckets: []hist.Bucket{{Start: 0, End: 0}}},                     // empty domain
		{N: 3, Buckets: []hist.Bucket{{Start: 0, End: 2}, {Start: 3, End: 2}}}, // inverted
		{N: 3, Buckets: []hist.Bucket{{Start: 0, End: 2, Rep: math.NaN()}}},    // numbers JSON cannot write
		{N: 3, Buckets: []hist.Bucket{{Start: 0, End: 2, Rep: math.Inf(-1)}}},
		{N: 3, Buckets: []hist.Bucket{{Start: 0, End: 2, Cost: math.Inf(1)}}},
		{N: 3, Buckets: []hist.Bucket{{Start: 0, End: 2}}, Cost: math.NaN()},
	}
	for i, h := range cases {
		if err := h.Validate(); err == nil {
			t.Errorf("case %d: invalid histogram accepted", i)
		}
	}
}

func TestFromBoundaries(t *testing.T) {
	src := pdata.Deterministic([]float64{1, 2, 3, 4})
	o := hist.NewSSEValue(src)
	h, err := hist.FromBoundaries(o, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if h.B() != 2 || h.Buckets[0].End != 1 || h.Buckets[1].End != 3 {
		t.Fatalf("unexpected buckets %+v", h.Buckets)
	}
	if _, err := hist.FromBoundaries(o, []int{1}); err == nil {
		t.Error("boundaries not starting at 0 accepted")
	}
	if _, err := hist.FromBoundaries(o, nil); err == nil {
		t.Error("empty boundaries accepted")
	}
}

func TestBucketWidth(t *testing.T) {
	if w := (hist.Bucket{Start: 2, End: 5}).Width(); w != 4 {
		t.Fatalf("Width = %d, want 4", w)
	}
}

// Boundaries() of an Optimal histogram must reproduce the same histogram
// when fed back through FromBoundaries.
func TestBoundariesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	src := ptest.RandomValuePDF(rng, 9, 3)
	o := hist.NewSSEValue(src)
	h, err := hist.OptimalPool(o, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := hist.FromBoundaries(o, h.Boundaries())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Cost-h2.Cost) > 1e-12 {
		t.Fatalf("roundtrip cost %v != %v", h2.Cost, h.Cost)
	}
}

// DPTable.Cost clamps its budget to [1, Bmax] on both sides, as the
// wavelet sweeps' Cost does: the frontier adapters pass budgets through.
func TestDPTableCostClamps(t *testing.T) {
	o := hist.NewSSEValue(ptest.RandomValuePDF(rand.New(rand.NewSource(37)), 9, 3))
	tab, err := hist.RunDPPool(o, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{0, -3} {
		if got := tab.Cost(b); got != tab.Cost(1) {
			t.Fatalf("Cost(%d) = %v, want Cost(1) = %v", b, got, tab.Cost(1))
		}
	}
	if got := tab.Cost(99); got != tab.Cost(4) {
		t.Fatalf("Cost(99) = %v, want Cost(Bmax) = %v", got, tab.Cost(4))
	}
}
