package hist_test

import (
	"math"
	"math/rand"
	"testing"

	"probsyn/internal/gen"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

const costTol = 1e-9

// allBuckets invokes f on every (s, e) bucket of a small domain.
func allBuckets(n int, f func(s, e int)) {
	for s := 0; s < n; s++ {
		for e := s; e < n; e++ {
			f(s, e)
		}
	}
}

// bothWays invokes f on every bucket of o twice: priced by Cost, then by
// the sweep the DP prices it through.
func bothWays(o hist.SweepOracle, f func(how string, s, e int, cost, rep float64)) {
	n := o.N()
	costs, reps := make([]float64, n), make([]float64, n)
	for e := 0; e < n; e++ {
		o.CostsForEnd(e, costs, reps)
		for s := 0; s <= e; s++ {
			cost, rep := o.Cost(s, e)
			f("Cost", s, e, cost, rep)
			f("CostsForEnd", s, e, costs[s], reps[s])
		}
	}
}

// --- SSE (paper Eq. 5 objective) -------------------------------------------

func TestSSEValueOracleAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		vp := ptest.RandomValuePDF(rng, 5, 3)
		o := hist.NewSSEValue(vp)
		if o.N() != 5 || o.Combine() != hist.Sum {
			t.Fatal("oracle shape wrong")
		}
		allBuckets(5, func(s, e int) {
			got, _ := o.Cost(s, e)
			want := ptest.ExactClairvoyantSSE(vp, s, e)
			if math.Abs(got-want) > costTol {
				t.Fatalf("trial %d bucket[%d,%d]: cost %v, enum %v", trial, s, e, got, want)
			}
		})
	}
}

func TestSSEValueFractionalFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 10; trial++ {
		vp := ptest.RandomFractionalValuePDF(rng, 4, 3)
		o := hist.NewSSEValue(vp)
		allBuckets(4, func(s, e int) {
			got, _ := o.Cost(s, e)
			want := ptest.ExactClairvoyantSSE(vp, s, e)
			if math.Abs(got-want) > costTol {
				t.Fatalf("trial %d bucket[%d,%d]: cost %v, enum %v", trial, s, e, got, want)
			}
		})
	}
}

func TestSSETupleOracleAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 25; trial++ {
		tp := ptest.RandomTuplePDF(rng, 5, 4, 3) // multi-alternative: straddling likely
		o := hist.NewSSETuple(tp)
		allBuckets(5, func(s, e int) {
			got, _ := o.Cost(s, e)
			want := ptest.ExactClairvoyantSSE(tp, s, e)
			if math.Abs(got-want) > costTol {
				t.Fatalf("trial %d bucket[%d,%d]: cost %v, enum %v", trial, s, e, got, want)
			}
		})
	}
}

func TestSSETupleSweepMatchesRandomAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 20; trial++ {
		tp := ptest.RandomTuplePDF(rng, 7, 6, 3)
		o := hist.NewSSETuple(tp)
		costs := make([]float64, 7)
		reps := make([]float64, 7)
		for e := 0; e < 7; e++ {
			o.CostsForEnd(e, costs, reps)
			for s := 0; s <= e; s++ {
				c, r := o.Cost(s, e)
				if math.Abs(c-costs[s]) > costTol || math.Abs(r-reps[s]) > costTol {
					t.Fatalf("trial %d [%d,%d]: sweep (%v,%v) vs random access (%v,%v)",
						trial, s, e, costs[s], reps[s], c, r)
				}
			}
		}
	}
}

// §3.1 worked example: bucket 1..3 of the Example 1 tuple pdf costs 29/36.
func TestSSETupleWorkedExample(t *testing.T) {
	tp := &pdata.TuplePDF{N: 3, Tuples: []pdata.Tuple{
		{Alts: []pdata.Alternative{{Item: 0, Prob: 0.5}, {Item: 1, Prob: 1.0 / 3}}},
		{Alts: []pdata.Alternative{{Item: 1, Prob: 0.25}, {Item: 2, Prob: 0.5}}},
	}}
	o := hist.NewSSETuple(tp)
	got, _ := o.Cost(0, 2)
	if math.Abs(got-29.0/36) > 1e-12 {
		t.Fatalf("bucket[0,2] cost = %v, want 29/36", got)
	}
}

// In the basic model no tuple straddles any boundary, so the paper's
// closed form is exact (DESIGN.md finding 3).
func TestSSETupleClosedFormExactForBasicModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		b := ptest.RandomBasic(rng, 5, 6)
		exact := hist.NewSSETuple(b.TuplePDF())
		closed := hist.NewSSETupleClosedForm(b.TuplePDF())
		allBuckets(5, func(s, e int) {
			ce, _ := exact.Cost(s, e)
			cc, _ := closed.Cost(s, e)
			if math.Abs(ce-cc) > costTol {
				t.Fatalf("trial %d [%d,%d]: exact %v vs closed form %v", trial, s, e, ce, cc)
			}
		})
	}
}

// With a tuple whose alternatives straddle a bucket boundary, the closed
// form deviates from the exact (enumeration-verified) cost.
func TestSSETupleClosedFormDeviatesOnStraddle(t *testing.T) {
	tp := &pdata.TuplePDF{N: 3, Tuples: []pdata.Tuple{
		{Alts: []pdata.Alternative{{Item: 0, Prob: 0.5}, {Item: 2, Prob: 0.5}}},
	}}
	exact := hist.NewSSETuple(tp)
	closed := hist.NewSSETupleClosedForm(tp)
	want := ptest.ExactClairvoyantSSE(tp, 1, 2)
	ce, _ := exact.Cost(1, 2)
	cc, _ := closed.Cost(1, 2)
	if math.Abs(ce-want) > costTol {
		t.Fatalf("exact oracle %v disagrees with enumeration %v", ce, want)
	}
	if math.Abs(cc-want) < 1e-6 {
		t.Fatalf("closed form %v unexpectedly matches enumeration %v on straddling input", cc, want)
	}
}

// --- SSE with a fixed representative ----------------------------------------

func TestSSEFixedAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sources := func() []pdata.Source {
		return []pdata.Source{
			ptest.RandomValuePDF(rng, 4, 3),
			ptest.RandomTuplePDF(rng, 4, 4, 2),
			ptest.RandomBasic(rng, 4, 5),
		}
	}
	for trial := 0; trial < 10; trial++ {
		for _, src := range sources() {
			o := hist.NewSSEFixed(src)
			allBuckets(4, func(s, e int) {
				cost, rep := o.Cost(s, e)
				want := ptest.ExactBucketCost(src, metric.SSEFixed, metric.Params{}, s, e, rep)
				if math.Abs(cost-want) > costTol {
					t.Fatalf("%T [%d,%d]: cost %v, enum-at-rep %v", src, s, e, cost, want)
				}
				// rep must be optimal: nudging it must not decrease the cost
				for _, d := range []float64{-0.1, 0.1} {
					alt := ptest.ExactBucketCost(src, metric.SSEFixed, metric.Params{}, s, e, rep+d)
					if alt < cost-costTol {
						t.Fatalf("%T [%d,%d]: rep %v suboptimal (%v beats %v)", src, s, e, rep, alt, cost)
					}
				}
			})
		}
	}
}

// Finding 1: under the fixed-representative SSE objective the optimal
// bucketing coincides with the V-optimal bucketing of the expected
// frequencies (the "Expectation heuristic").
func TestSSEFixedOptimalEqualsExpectationVOpt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		src := ptest.RandomTuplePDF(rng, 8, 6, 3)
		oProb := hist.NewSSEFixed(src)
		oDet := hist.NewSSEFixed(pdata.Deterministic(src.ExpectedFreqs()))
		for B := 1; B <= 4; B++ {
			hProb, err := hist.OptimalPool(oProb, B, nil)
			if err != nil {
				t.Fatal(err)
			}
			hDet, err := hist.OptimalPool(oDet, B, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Equal cost when the deterministic bucketing is priced under
			// the probabilistic fixed-rep oracle (ties may differ in layout).
			reprice, err := hist.FromBoundaries(oProb, hDet.Boundaries())
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(reprice.Cost-hProb.Cost) > 1e-7*(1+hProb.Cost) {
				t.Fatalf("trial %d B=%d: expectation V-opt cost %v != probabilistic %v",
					trial, B, reprice.Cost, hProb.Cost)
			}
		}
	}
}

// --- SSRE -------------------------------------------------------------------

func TestSSREOracleAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	p := metric.Params{C: 0.5}
	for trial := 0; trial < 15; trial++ {
		for _, src := range []pdata.Source{
			ptest.RandomValuePDF(rng, 4, 3),
			ptest.RandomTuplePDF(rng, 4, 4, 2),
		} {
			o := hist.NewSSRE(pdata.AsValuePDF(src), p)
			allBuckets(4, func(s, e int) {
				cost, rep := o.Cost(s, e)
				want := ptest.ExactBucketCost(src, metric.SSRE, p, s, e, rep)
				if math.Abs(cost-want) > costTol {
					t.Fatalf("%T [%d,%d]: cost %v, enum-at-rep %v", src, s, e, cost, want)
				}
				for _, d := range []float64{-0.2, 0.2} {
					alt := ptest.ExactBucketCost(src, metric.SSRE, p, s, e, rep+d)
					if alt < cost-costTol {
						t.Fatalf("%T [%d,%d]: rep %v suboptimal", src, s, e, rep)
					}
				}
			})
		}
	}
}

// --- SAE / SARE --------------------------------------------------------------

func TestWeightedAbsAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	p := metric.Params{C: 0.5}
	for trial := 0; trial < 12; trial++ {
		for _, k := range []metric.Kind{metric.SAE, metric.SARE} {
			for _, src := range []pdata.Source{
				ptest.RandomValuePDF(rng, 4, 3),
				ptest.RandomTuplePDF(rng, 4, 3, 2),
				ptest.RandomBasic(rng, 4, 5),
			} {
				vp := pdata.AsValuePDF(src)
				vs := pdata.Support(vp)
				tab, err := pdata.NewPMFTable(vp, vs)
				if err != nil {
					t.Fatal(err)
				}
				o, err := hist.NewWeightedAbs(tab, k, p)
				if err != nil {
					t.Fatal(err)
				}
				bothWays(o, func(how string, s, e int, cost, rep float64) {
					want := ptest.ExactBucketCost(src, k, p, s, e, rep)
					if math.Abs(cost-want) > costTol {
						t.Fatalf("%v %T %s [%d,%d]: cost %v, enum-at-rep %v", k, src, how, s, e, cost, want)
					}
					// optimal over every candidate value in V (paper: the
					// optimum is attained at a member of V)
					for _, v := range vs.Values {
						alt := ptest.ExactBucketCost(src, k, p, s, e, v)
						if alt < cost-costTol {
							t.Fatalf("%v %T %s [%d,%d]: rep %v (cost %v) beaten by %v (cost %v)",
								k, src, how, s, e, rep, cost, v, alt)
						}
					}
				})
			}
		}
	}
}

func TestWeightedAbsRejectsWrongMetric(t *testing.T) {
	vp := ptest.RandomValuePDF(rand.New(rand.NewSource(1)), 3, 2)
	tab, err := pdata.NewPMFTable(vp, pdata.Support(vp))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hist.NewWeightedAbs(tab, metric.SSE, metric.Params{}); err == nil {
		t.Fatal("WeightedAbs accepted SSE")
	}
}

// --- MAE / MARE ---------------------------------------------------------------

func TestMaxAbsAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	p := metric.Params{C: 0.5}
	for trial := 0; trial < 12; trial++ {
		for _, k := range []metric.Kind{metric.MAE, metric.MARE} {
			for _, src := range []pdata.Source{
				ptest.RandomValuePDF(rng, 4, 3),
				ptest.RandomTuplePDF(rng, 4, 3, 2),
				ptest.RandomBasic(rng, 4, 5),
			} {
				vp := pdata.AsValuePDF(src)
				vs := pdata.Support(vp)
				tab, err := pdata.NewPMFTable(vp, vs)
				if err != nil {
					t.Fatal(err)
				}
				o, err := hist.NewMaxAbs(tab, k, p)
				if err != nil {
					t.Fatal(err)
				}
				bothWays(o, func(how string, s, e int, cost, rep float64) {
					want := ptest.ExactBucketCost(src, k, p, s, e, rep)
					if math.Abs(cost-want) > costTol {
						t.Fatalf("%v %T %s [%d,%d]: cost %v, enum-at-rep %v", k, src, how, s, e, cost, want)
					}
					// optimality against a fine grid of fractional candidates
					maxV := vs.Values[vs.Len()-1]
					for g := 0; g <= 60; g++ {
						cand := maxV * float64(g) / 60
						alt := ptest.ExactBucketCost(src, k, p, s, e, cand)
						if alt < cost-1e-7 {
							t.Fatalf("%v %T %s [%d,%d]: rep %v (cost %v) beaten by %v (cost %v)",
								k, src, how, s, e, rep, cost, cand, alt)
						}
					}
				})
			}
		}
	}
}

func TestMaxAbsRejectsWrongMetric(t *testing.T) {
	vp := ptest.RandomValuePDF(rand.New(rand.NewSource(1)), 3, 2)
	tab, err := pdata.NewPMFTable(vp, pdata.Support(vp))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hist.NewMaxAbs(tab, metric.SAE, metric.Params{}); err == nil {
		t.Fatal("MaxAbs accepted SAE")
	}
}

// --- oracle factory -----------------------------------------------------------

func TestNewOracleRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	p := metric.DefaultParams()
	srcs := []pdata.Source{
		ptest.RandomValuePDF(rng, 4, 2),
		ptest.RandomTuplePDF(rng, 4, 3, 2),
		ptest.RandomBasic(rng, 4, 4),
	}
	kinds := []metric.Kind{metric.SSE, metric.SSEFixed, metric.SSRE,
		metric.SAE, metric.SARE, metric.MAE, metric.MARE}
	for _, src := range srcs {
		for _, k := range kinds {
			o, err := hist.NewOracle(src, k, p)
			if err != nil {
				t.Fatalf("NewOracle(%T, %v): %v", src, k, err)
			}
			if o.N() != 4 {
				t.Fatalf("NewOracle(%T, %v): N = %d", src, k, o.N())
			}
			wantCombine := hist.Sum
			if !k.Cumulative() {
				wantCombine = hist.Max
			}
			if o.Combine() != wantCombine {
				t.Fatalf("NewOracle(%T, %v): combine mismatch", src, k)
			}
		}
	}
}

// --- allocations -------------------------------------------------------------

// TestOracleCostAllocations pins what a bucket price allocates once the
// oracle is built: nothing, for every oracle but MaxAbs, from Cost and from
// the sweep the DP prices a column through. A build asks for
// n(n+1)/2 prices, so one allocation here is millions there. MaxAbs keeps
// its scratch: the lines of a refined step, grown by append inside Cost
// (one doubling per power of two of the bucket width) and, beside the grid
// envelope and its argmax, three slices a column in CostsForEnd.
func TestOracleCostAllocations(t *testing.T) {
	const n, maxWidth = 512, 65
	basic := gen.MystiQLinkage(rand.New(rand.NewSource(42)), gen.DefaultMystiQ(n))
	tpch := gen.DefaultTPCH(n, 4*n)
	tpch.Spread = 8 // tuples straddle bucket starts: Cost takes the stab path
	rng := rand.New(rand.NewSource(9))
	buckets := [][2]int{{n - maxWidth, n - 1}} // the widest, whatever the draw
	for len(buckets) < 64 {
		s := rng.Intn(n)
		buckets = append(buckets, [2]int{s, s + rng.Intn(min(n-s, maxWidth))})
	}
	costs, reps := make([]float64, n), make([]float64, n)
	for _, tc := range []struct {
		name string
		src  pdata.Source
		kind metric.Kind
		// The most one Cost call and, where the oracle has a sweep, one
		// CostsForEnd(n-1) may allocate.
		cost, sweep float64
	}{
		{"SSE/value", pdata.AsValuePDF(basic), metric.SSE, 0, 0},
		{"SSE/basic", basic, metric.SSE, 0, 0},
		{"SSE/tuple", gen.TPCHLineitem(rand.New(rand.NewSource(42)), tpch), metric.SSE, 0, 0},
		{"SSE-fixed", basic, metric.SSEFixed, 0, 0},
		{"SSRE", basic, metric.SSRE, 0, 0},
		{"SAE", basic, metric.SAE, 0, 0},
		{"SARE", basic, metric.SARE, 0, 0},
		{"MAE", basic, metric.MAE, 8, 3},
		{"MARE", basic, metric.MARE, 8, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := hist.NewOracle(tc.src, tc.kind, metric.Params{C: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			o.Cost(0, n-1) // the tuple-pdf SSE oracle builds what Cost reads here
			for _, b := range buckets {
				if got := testing.AllocsPerRun(5, func() { o.Cost(b[0], b[1]) }); got > tc.cost {
					t.Fatalf("Cost(%d, %d): %v allocations, want at most %v", b[0], b[1], got, tc.cost)
				}
			}
			so, ok := o.(hist.SweepOracle)
			if !ok {
				return
			}
			if got := testing.AllocsPerRun(5, func() { so.CostsForEnd(n-1, costs, reps) }); got > tc.sweep {
				t.Errorf("CostsForEnd(%d): %v allocations, want at most %v", n-1, got, tc.sweep)
			}
		})
	}
}
