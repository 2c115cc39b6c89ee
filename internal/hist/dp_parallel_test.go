package hist

// White-box tests that the DP's tile schedule is bit-identical at every
// worker count and tile shape: same opt values (exact float equality),
// same back-pointers and same work counters, for every oracle family. Run
// under -race this also exercises the grid runner for data races.

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"probsyn/internal/engine"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

// tablesIdentical reports whether two DP tables are bit-identical,
// returning a description of the first mismatch.
func tablesIdentical(t *testing.T, a, b *DPTable) {
	t.Helper()
	if a.n != b.n || a.bmax != b.bmax {
		t.Fatalf("table shapes differ: (n=%d, bmax=%d) vs (n=%d, bmax=%d)", a.n, a.bmax, b.n, b.bmax)
	}
	for lvl := range a.opt {
		for j := range a.opt[lvl] {
			if a.opt[lvl][j] != b.opt[lvl][j] {
				t.Fatalf("opt[%d][%d]: serial %v, parallel %v (not bit-identical)",
					lvl, j, a.opt[lvl][j], b.opt[lvl][j])
			}
			if a.choice[lvl][j] != b.choice[lvl][j] {
				t.Fatalf("choice[%d][%d]: serial %d, parallel %d",
					lvl, j, a.choice[lvl][j], b.choice[lvl][j])
			}
		}
	}
}

func parallelSources(rng *rand.Rand, n int) map[string]pdata.Source {
	return map[string]pdata.Source{
		"value": ptest.RandomValuePDF(rng, n, 3),
		"tuple": ptest.RandomTuplePDF(rng, n, 2*n, 3),
		"basic": ptest.RandomBasic(rng, n, 2*n),
	}
}

// finePool returns a pool whose grain is low enough that small test
// inputs actually take the chunked code paths (the approximate DP; the
// exact DP's tile schedule has no grain). Grain lives in engine.Options —
// not a package global — so this is safe under parallel test execution.
func finePool(workers int) *engine.Pool {
	return engine.New(engine.Options{Workers: workers, Grain: 8})
}

// tileShapes are the geometries the tile-edge cases run on top of
// production's: a tile edge at every level and every end with a one-slot
// ring, and two uneven ones whose blocks do not divide the domains below.
var tileShapes = []tileShape{defaultTiles, {1, 1, 1}, {3, 4, 2}, {2, 5, 3}}

func TestRunDPWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	// 12 end blocks by a fill row and one band: more tiles than any worker
	// count below, so every pool really shares the grid.
	const n, B = 96, 9
	workerCounts := []int{1, 2, 3, 5, runtime.NumCPU()}
	for srcName, src := range parallelSources(rng, n) {
		for _, k := range []metric.Kind{metric.SSE, metric.SSEFixed, metric.SSRE,
			metric.SAE, metric.SARE, metric.MAE, metric.MARE} {
			o, err := NewOracle(src, k, metric.Params{C: 0.5})
			if err != nil {
				t.Fatalf("%s/%v: %v", srcName, k, err)
			}
			serial, err := RunDPPool(o, B, engine.New(engine.Options{Workers: 1}))
			if err != nil {
				t.Fatalf("%s/%v serial: %v", srcName, k, err)
			}
			for _, w := range workerCounts {
				par, err := RunDPPool(o, B, finePool(w))
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", srcName, k, w, err)
				}
				tablesIdentical(t, serial, par)
				if got, want := par.Stats(), serial.Stats(); got != want {
					t.Fatalf("%s/%v workers=%d: stats %+v, serial %+v", srcName, k, w, got, want)
				}
			}
		}
	}
}

// Tile edges must not change results: domains and budgets of 1, one short
// of a tile, exactly a tile, one past it and a non-multiple — Bmax = 1 is a
// fill row alone, Bmax = 9 one full default band, Bmax > n clamps — on
// every tile shape, with more workers than some of these grids have tiles,
// against the dense reference. The work counters must not depend on the
// shape or the worker count either.
func TestRunDPWorkersTinyDomains(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 17} {
		src := ptest.RandomValuePDF(rng, n, 3)
		for _, o := range []Oracle{NewSSEValue(src), NewSSETuple(ptest.RandomTuplePDF(rng, n, 2*n, 3))} {
			for _, B := range []int{1, 2, 3, 7, 8, 9, 10, 13, n, n + 1} {
				dense := denseTable(o, B)
				serial, err := RunDPPool(o, B, nil)
				if err != nil {
					t.Fatal(err)
				}
				tablesIdentical(t, dense, serial)
				for _, ts := range tileShapes {
					for _, w := range []int{1, 2, 5, runtime.NumCPU()} {
						par, err := runDP(o, B, finePool(w), ts)
						if err != nil {
							t.Fatal(err)
						}
						tablesIdentical(t, dense, par)
						if got, want := par.Stats(), serial.Stats(); got != want {
							t.Fatalf("%T n=%d B=%d tiles=%v workers=%d: stats %+v, serial %+v", o, n, B, ts, w, got, want)
						}
					}
				}
			}
		}
	}
}

// A pool with Workers <= 0 resolves to NumCPU and must agree too
// (at the default grain, and through a fine-grained pool).
func TestRunDPWorkersDefaultWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	src := ptest.RandomTuplePDF(rng, 64, 128, 3)
	o := NewSSETuple(src)
	serial, err := RunDPPool(o, 7, engine.New(engine.Options{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunDPPool(o, 7, engine.New(engine.Options{Workers: 0}))
	if err != nil {
		t.Fatal(err)
	}
	tablesIdentical(t, serial, par)
	par, err = RunDPPool(o, 7, finePool(0))
	if err != nil {
		t.Fatal(err)
	}
	tablesIdentical(t, serial, par)
}

func TestApproximateWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	src := ptest.RandomValuePDF(rng, 80, 3)
	o := NewSSEValue(src)
	for _, eps := range []float64{0.1, 0.5} {
		serial, err := ApproximatePool(o, 6, eps, engine.New(engine.Options{Workers: 1}))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, runtime.NumCPU(), 0} {
			par, err := ApproximatePool(o, 6, eps, finePool(w))
			if err != nil {
				t.Fatal(err)
			}
			if serial.Cost != par.Cost {
				t.Fatalf("eps=%g workers=%d: cost %v != serial %v", eps, w, par.Cost, serial.Cost)
			}
			sb, pb := serial.Boundaries(), par.Boundaries()
			if len(sb) != len(pb) {
				t.Fatalf("eps=%g workers=%d: %d boundaries != %d", eps, w, len(pb), len(sb))
			}
			for i := range sb {
				if sb[i] != pb[i] {
					t.Fatalf("eps=%g workers=%d: boundary %d is %d, serial %d", eps, w, i, pb[i], sb[i])
				}
			}
		}
	}
}

// OptimalPool on a parallel pool must agree with the serial run on the
// materialized histogram.
func TestOptimalWorkersMatchesOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	src := ptest.RandomBasic(rng, 48, 80)
	o, err := NewOracle(src, metric.SAE, metric.Params{C: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := OptimalPool(o, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := OptimalPool(o, 5, engine.New(engine.Options{Workers: runtime.NumCPU()}))
	if err != nil {
		t.Fatal(err)
	}
	if h1.Cost != h2.Cost || h1.B() != h2.B() {
		t.Fatalf("parallel histogram (B=%d, cost=%v) != serial (B=%d, cost=%v)",
			h2.B(), h2.Cost, h1.B(), h1.Cost)
	}
	for k := range h1.Buckets {
		if h1.Buckets[k] != h2.Buckets[k] {
			t.Fatalf("bucket %d: %+v != %+v", k, h2.Buckets[k], h1.Buckets[k])
		}
	}
}

// TestSharedSweepOracleConcurrentDPs: WeightedAbs and MaxAbs keep their
// sweep state local to CostsForEnd, so any number of DPs may sweep one
// oracle at once. Two goroutines build from one shared oracle, each on its
// own fanned-out pool; both tables must equal the serial build. Under
// -race this is the check that the sweeps share nothing they write.
func TestSharedSweepOracleConcurrentDPs(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	const n, B = 96, 9
	for srcName, src := range parallelSources(rng, n) {
		for _, k := range []metric.Kind{metric.SAE, metric.SARE, metric.MAE, metric.MARE} {
			o, err := NewOracle(src, k, metric.Params{C: 0.5})
			if err != nil {
				t.Fatalf("%s/%v: %v", srcName, k, err)
			}
			if _, ok := o.(SweepOracle); !ok {
				t.Fatalf("%s/%v: %T has no sweep", srcName, k, o)
			}
			serial, err := RunDPPool(o, B, nil)
			if err != nil {
				t.Fatalf("%s/%v serial: %v", srcName, k, err)
			}
			var tabs [2]*DPTable
			var errs [2]error
			var wg sync.WaitGroup
			for g := range tabs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tabs[g], errs[g] = RunDPPool(o, B, finePool(2))
				}()
			}
			wg.Wait()
			for g := range tabs {
				if errs[g] != nil {
					t.Fatalf("%s/%v goroutine %d: %v", srcName, k, g, errs[g])
				}
				tablesIdentical(t, serial, tabs[g])
			}
		}
	}
}

// countingSweep counts how a DP prices a sweep oracle.
type countingSweep struct {
	SweepOracle
	costs, sweeps *int
}

func (c countingSweep) Cost(s, e int) (float64, float64) {
	*c.costs++
	return c.SweepOracle.Cost(s, e)
}

func (c countingSweep) CostsForEnd(e int, costs, reps []float64) {
	*c.sweeps++
	c.SweepOracle.CostsForEnd(e, costs, reps)
}

// TestReferencePathsPriceThroughCost: the default DP prices a
// sweep-accelerated oracle through its sweep alone, and the two
// recomputations it is checked against — the dense reference DP and
// OptimalError — through cold Cost calls alone, so that comparing them
// compares the sweep with the search it stands in for. Only the exact
// SSETuple is swept by the references as well.
func TestReferencePathsPriceThroughCost(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const n, B = 40, 5
	for _, k := range []metric.Kind{metric.SARE, metric.MAE} {
		base, err := NewOracle(ptest.RandomValuePDF(rng, n, 3), k, metric.Params{C: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		var costs, sweeps int
		o := countingSweep{base.(SweepOracle), &costs, &sweeps}
		tab, err := RunDPPool(o, B, nil)
		if err != nil {
			t.Fatal(err)
		}
		if costs != 0 || sweeps != n {
			t.Fatalf("%v default DP: %d Cost calls and %d sweeps, want 0 and %d", k, costs, sweeps, n)
		}
		if got, want := tab.Stats().CostEvals, int64(n*(n+1)/2); got != want {
			t.Fatalf("%v default DP: %d cost evals, want one per bucket, %d", k, got, want)
		}
		costs, sweeps = 0, 0
		dense := denseTable(o, B)
		if costs == 0 || sweeps != 0 {
			t.Fatalf("%v dense DP: %d Cost calls and %d sweeps, want some and 0", k, costs, sweeps)
		}
		tablesIdentical(t, dense, tab)
		costs, sweeps = 0, 0
		got, err := OptimalError(o, B)
		if err != nil {
			t.Fatal(err)
		}
		if costs == 0 || sweeps != 0 {
			t.Fatalf("%v OptimalError: %d Cost calls and %d sweeps, want some and 0", k, costs, sweeps)
		}
		if math.Float64bits(got) != math.Float64bits(tab.Cost(B)) {
			t.Fatalf("%v: OptimalError %v, table cost %v", k, got, tab.Cost(B))
		}
	}
	src := ptest.RandomTuplePDF(rng, n, 2*n, 3)
	tuple := NewSSETuple(src)
	if !sweepOnly(tuple) || sweepOnly(countingSweep{SweepOracle: tuple}) || sweepOnly(NewSSETupleClosedForm(src)) {
		t.Fatal("sweepOnly must hold for the exact SSETuple and for nothing else")
	}
}
