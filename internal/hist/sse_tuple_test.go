package hist_test

// The contract of SSETuple's Gram-row sweep: a column's floats do not
// depend on which calls came before it, the sweep agrees with the random-
// access Cost to rounding and with world enumeration, and it never does
// more work than the per-alternative start-sweep it replaced — kept below
// as the reference.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"probsyn/internal/gen"
	"probsyn/internal/hist"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

// startSweep is SSETuple's sweep as it was before the Gram row: for each
// end it walks the starts downward and, at every alternative on the way,
// updates that tuple's in-bucket mass P_t and the running Σ_t P_t(1−P_t).
// Every alternative at an item <= e is visited once per end: O(n·m) a
// build.
type startSweep struct {
	n            int
	meanSq, mean []float64 // prefix sums, shifted by 1
	tupleAt      [][]int32 // per item: the tuples with an alternative there
	massAt       [][]float64
	inBucket     []float64 // P_t, zero between calls
}

func newStartSweep(tp *pdata.TuplePDF) *startSweep {
	mom := pdata.MomentsOf(tp)
	o := &startSweep{
		n: tp.N, meanSq: make([]float64, tp.N+1), mean: make([]float64, tp.N+1),
		tupleAt: make([][]int32, tp.N), massAt: make([][]float64, tp.N),
		inBucket: make([]float64, len(tp.Tuples)),
	}
	for i := 0; i < tp.N; i++ {
		o.meanSq[i+1] = o.meanSq[i] + mom.MeanSq[i]
		o.mean[i+1] = o.mean[i] + mom.Mean[i]
	}
	for t := range tp.Tuples {
		for _, a := range tp.Tuples[t].Alts {
			if a.Prob != 0 {
				o.tupleAt[a.Item] = append(o.tupleAt[a.Item], int32(t))
				o.massAt[a.Item] = append(o.massAt[a.Item], a.Prob)
			}
		}
	}
	return o
}

func (o *startSweep) CostsForEnd(e int, costs, reps []float64) {
	variance := 0.0
	for s := e; s >= 0; s-- {
		for k, t := range o.tupleAt[s] {
			p, cur := o.massAt[s][k], o.inBucket[t]
			variance += (cur+p)*(1-cur-p) - cur*(1-cur)
			o.inBucket[t] = cur + p
		}
		nb := float64(e - s + 1)
		esum := o.mean[e+1] - o.mean[s]
		cost := o.meanSq[e+1] - o.meanSq[s] - (esum*esum+variance)/nb
		costs[s], reps[s] = max(cost, 0), esum/nb
	}
	for s := 0; s <= e; s++ {
		for _, t := range o.tupleAt[s] {
			o.inBucket[t] = 0
		}
	}
}

// endOrderColumns returns, per end, the column (costs then reps) a fresh
// oracle over tp writes when asked in ascending end order, as the DP asks.
func endOrderColumns(tp *pdata.TuplePDF) [][]float64 {
	o := hist.NewSSETuple(tp)
	cols := make([][]float64, tp.N)
	for e := range cols {
		cols[e] = make([]float64, 2*tp.N)
		o.CostsForEnd(e, cols[e][:tp.N], cols[e][tp.N:])
	}
	return cols
}

// checkColumns asks o for the given ends in the given order and fails on
// the first column that is not, bit for bit, want's.
func checkColumns(t *testing.T, what string, o hist.Oracle, ends []int, want [][]float64) {
	t.Helper()
	n := o.N()
	costs, reps := make([]float64, n), make([]float64, n)
	for _, e := range ends {
		o.CostsForEnd(e, costs, reps)
		for s := 0; s <= e; s++ {
			if math.Float64bits(costs[s]) != math.Float64bits(want[e][s]) || math.Float64bits(reps[s]) != math.Float64bits(want[e][n+s]) {
				t.Fatalf("%s: [%d,%d] = (%v, %v), in end order on a fresh oracle (%v, %v)", what, s, e, costs[s], reps[s], want[e][s], want[e][n+s])
			}
		}
	}
}

// (a) History independence: ascending, descending, shuffled and repeated
// ends, two ascending passes interleaved on one oracle, and FromBoundaries
// in between, all write the columns a fresh oracle writes in DP order.
func TestSSETupleSweepHistoryIndependent(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(31))
	tp := ptest.RandomTuplePDF(rng, n, 3*n, 5)
	want := endOrderColumns(tp)

	ascending, descending := make([]int, n), make([]int, n)
	for e := range ascending {
		ascending[e], descending[e] = e, n-1-e
	}
	shuffled := append(rng.Perm(n), rng.Perm(n)...)
	// Two DPs' fills taking turns: each asks for its own next end.
	var interleaved []int
	for a, b := 0, 0; a < n || b < n; {
		if b >= n || (a < n && rng.Intn(2) == 0) {
			interleaved = append(interleaved, a)
			a++
		} else {
			interleaved = append(interleaved, b)
			b++
		}
	}
	o := hist.NewSSETuple(tp) // one oracle through every order: its row carries over
	for _, order := range []struct {
		name string
		ends []int
	}{{"descending", descending}, {"shuffled", shuffled}, {"interleaved", interleaved}, {"ascending", ascending}} {
		checkColumns(t, order.name, o, order.ends, want)
		h, err := hist.FromBoundaries(o, []int{0, 5, 6, 20, 41})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range h.Buckets {
			if col := want[b.End]; math.Float64bits(b.Cost) != math.Float64bits(col[b.Start]) || math.Float64bits(b.Rep) != math.Float64bits(col[n+b.Start]) {
				t.Fatalf("after %s: FromBoundaries bucket [%d,%d] = (%v, %v), the sweep writes (%v, %v)", order.name, b.Start, b.End, b.Cost, b.Rep, col[b.Start], col[n+b.Start])
			}
		}
	}
}

// Two DPs running at once on one oracle take turns on its row (each column
// is one locked step) and both come out as a DP running alone does.
func TestSSETupleConcurrentDPs(t *testing.T) {
	const n, B = 64, 9
	tp := ptest.RandomTuplePDF(rand.New(rand.NewSource(32)), n, 3*n, 4)
	alone, err := hist.RunDPPool(hist.NewSSETuple(tp), B, nil)
	if err != nil {
		t.Fatal(err)
	}
	shared := hist.NewSSETuple(tp)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab, err := hist.RunDPPool(shared, B, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for b := 1; b <= B; b++ {
				if math.Float64bits(tab.Cost(b)) != math.Float64bits(alone.Cost(b)) {
					t.Errorf("budget %d: cost %v on a shared oracle, %v alone", b, tab.Cost(b), alone.Cost(b))
				}
				got, want := tab.Boundaries(b), alone.Boundaries(b)
				for k := range want {
					if got[k] != want[k] {
						t.Errorf("budget %d: boundaries %v on a shared oracle, %v alone", b, got, want)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
}

// Cost's structures are built by whichever call comes first; callers racing
// for that first call (ApproximatePool prices a level from many goroutines)
// all read the finished ones.
func TestSSETupleCostConcurrentFirstCall(t *testing.T) {
	const n = 32
	tp := ptest.RandomTuplePDF(rand.New(rand.NewSource(37)), n, 3*n, 4)
	serial, shared := hist.NewSSETuple(tp), hist.NewSSETuple(tp)
	var want [n][n][2]float64
	allBuckets(n, func(s, e int) { want[s][e][0], want[s][e][1] = serial.Cost(s, e) })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			allBuckets(n, func(s, e int) {
				c, r := shared.Cost(s, e)
				if w := want[s][e]; math.Float64bits(c) != math.Float64bits(w[0]) || math.Float64bits(r) != math.Float64bits(w[1]) {
					t.Errorf("goroutine %d: Cost(%d,%d) = (%v, %v), serially (%v, %v)", g, s, e, c, r, w[0], w[1])
				}
			})
		}()
	}
	wg.Wait()
}

// relGap is |a−b| relative to the larger, with costs below 1 measured
// absolutely: a one-item bucket's cost is rounding noise around zero.
func relGap(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// (b) The sweep agrees with Cost to rounding at a size where sums are
// long: random non-dyadic probabilities, and the TPC-H stand-in with far-
// flung (Spread 0) and clustered (Spread 8) alternatives. The reference
// start-sweep must land in the same place.
func TestSSETupleSweepMatchesCostAtScale(t *testing.T) {
	const n = 256
	spread8 := gen.DefaultTPCH(n, 4*n)
	spread8.Spread = 8
	for name, tp := range map[string]*pdata.TuplePDF{
		"random":        ptest.RandomTuplePDF(rand.New(rand.NewSource(33)), n, 4*n, 4),
		"tpch/spread=0": gen.TPCHLineitem(rand.New(rand.NewSource(34)), gen.DefaultTPCH(n, 4*n)),
		"tpch/spread=8": gen.TPCHLineitem(rand.New(rand.NewSource(35)), spread8),
	} {
		o, ref := hist.NewSSETuple(tp), newStartSweep(tp)
		costs, reps := make([]float64, n), make([]float64, n)
		refCosts, refReps := make([]float64, n), make([]float64, n)
		worst := 0.0
		for e := 0; e < n; e++ {
			o.CostsForEnd(e, costs, reps)
			ref.CostsForEnd(e, refCosts, refReps)
			for s := 0; s <= e; s++ {
				c, r := o.Cost(s, e)
				gap := math.Max(relGap(costs[s], c), relGap(reps[s], r))
				worst = math.Max(worst, gap)
				if gap > 1e-12 {
					t.Fatalf("%s [%d,%d]: sweep (%v, %v), Cost (%v, %v)", name, s, e, costs[s], reps[s], c, r)
				}
				if relGap(costs[s], refCosts[s]) > 1e-12 || relGap(reps[s], refReps[s]) > 1e-12 {
					t.Fatalf("%s [%d,%d]: sweep (%v, %v), start-sweep reference (%v, %v)", name, s, e, costs[s], reps[s], refCosts[s], refReps[s])
				}
			}
		}
		t.Logf("%s: worst relative gap sweep vs Cost %.2g", name, worst)
	}
}

// (c) Shapes built to break a Gram row or a run merge, each against world
// enumeration on every bucket, through Cost and through the sweep.
func TestSSETupleAdversarialShapes(t *testing.T) {
	alt := func(item int, p float64) pdata.Alternative { return pdata.Alternative{Item: item, Prob: p} }
	tuple := func(alts ...pdata.Alternative) pdata.Tuple { return pdata.Tuple{Alts: alts} }
	shapes := []struct {
		name string
		src  *pdata.TuplePDF
	}{
		{"one tuple covering every item", &pdata.TuplePDF{N: 6, Tuples: []pdata.Tuple{
			tuple(alt(0, .1), alt(1, .2), alt(2, .15), alt(3, .25), alt(4, .05), alt(5, .25))}}},
		{"covering tuple, items descending", &pdata.TuplePDF{N: 5, Tuples: []pdata.Tuple{
			tuple(alt(4, .3), alt(3, .1), alt(2, .2), alt(1, .1), alt(0, .3)), tuple(alt(2, .5), alt(0, .5))}}},
		{"same item twice in a tuple", &pdata.TuplePDF{N: 4, Tuples: []pdata.Tuple{
			tuple(alt(1, .2), alt(3, .3), alt(1, .25)), tuple(alt(3, .1), alt(3, .2), alt(0, .3), alt(3, .1))}}},
		{"zero-probability alternatives", &pdata.TuplePDF{N: 4, Tuples: []pdata.Tuple{
			tuple(alt(0, 0), alt(2, .5), alt(3, 0)), tuple(alt(1, 0)), tuple(alt(0, .4), alt(3, .6), alt(2, 0))}}},
		{"an empty tuple", &pdata.TuplePDF{N: 3, Tuples: []pdata.Tuple{
			tuple(), tuple(alt(0, .5), alt(2, .5)), tuple()}}},
		{"no tuples", &pdata.TuplePDF{N: 3}},
		{"mass below 1", &pdata.TuplePDF{N: 4, Tuples: []pdata.Tuple{
			tuple(alt(0, .1), alt(3, .1)), tuple(alt(1, .3), alt(2, .2)), tuple(alt(2, .05))}}},
		{"full mass, two items", &pdata.TuplePDF{N: 2, Tuples: []pdata.Tuple{
			tuple(alt(0, .5), alt(1, .5)), tuple(alt(1, .75), alt(0, .25))}}},
		{"one item", &pdata.TuplePDF{N: 1, Tuples: []pdata.Tuple{tuple(alt(0, .3)), tuple(alt(0, .6), alt(0, .4))}}},
		{"the basic model", ptest.RandomBasic(rand.New(rand.NewSource(36)), 5, 7).TuplePDF()},
	}
	for _, sh := range shapes {
		if err := sh.src.Validate(); err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		bothWays(hist.NewSSETuple(sh.src), func(how string, s, e int, cost, _ float64) {
			if want := ptest.ExactClairvoyantSSE(sh.src, s, e); math.Abs(cost-want) > costTol {
				t.Fatalf("%s: %s[%d,%d] = %v, enumeration %v", sh.name, how, s, e, cost, want)
			}
		})
	}
}

// (d) Work bound. A tuple with k alternatives costs the Gram row k(k−1)/2
// pair updates a build and cost the start-sweep about n·k/2 alternative
// visits; k <= n, so the row never does more. One tuple naming every item
// is where the two meet (k = n = 2048: 2.1 M of each), and there the new
// sweep must not be the slower one. Timed as best of three to sit out a
// noisy host, with the slack of a test that must not flake: what it is
// there to catch is a sweep that went quadratic per end.
func TestSSETupleWorkBound(t *testing.T) {
	if testing.Short() {
		t.Skip("times two 2048-item sweeps")
	}
	const n = 2048
	one := pdata.Tuple{Alts: make([]pdata.Alternative, n)}
	for i := range one.Alts {
		one.Alts[i] = pdata.Alternative{Item: (i * 997) % n, Prob: 1 / float64(n+i)}
	}
	tp := &pdata.TuplePDF{N: n, Tuples: []pdata.Tuple{one}}
	costs, reps := make([]float64, n), make([]float64, n)
	type sweep = func(e int, costs, reps []float64)
	best := func(build func() sweep) time.Duration {
		fastest := time.Duration(math.MaxInt64)
		for try := 0; try < 3; try++ {
			t0 := time.Now()
			costsForEnd := build()
			for e := 0; e < n; e++ {
				costsForEnd(e, costs, reps)
			}
			fastest = min(fastest, time.Since(t0))
		}
		return fastest
	}
	gram := best(func() sweep { return hist.NewSSETuple(tp).CostsForEnd })
	start := best(func() sweep { return newStartSweep(tp).CostsForEnd })
	t.Logf("k = n = %d: Gram-row build and sweep %v, start-sweep %v", n, gram, start)
	if gram > start+start/2 {
		t.Fatalf("k = n = %d: Gram-row sweep took %v, the start-sweep it replaced %v", n, gram, start)
	}
}

// FuzzSSETupleSweep turns bytes into a small tuple pdf (up to 8 items, 4
// tuples of up to 4 alternatives: repeated items, zero probabilities,
// empty tuples and partial mass all occur) and an order of ends. Sweep,
// Cost and world enumeration must agree on every bucket, and every column
// must carry the bits it has in end order.
func FuzzSSETupleSweep(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 128, 2, 128})
	f.Add([]byte{8, 7, 4, 0, 60, 7, 60, 3, 60, 7, 75, 0, 2, 1, 0, 1, 255, 4, 5, 9, 5, 0, 6, 200, 2, 30})
	f.Add([]byte{1, 0, 3, 0, 10, 0, 20, 0, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%8
		order := rand.New(rand.NewSource(int64(next())))
		tp := &pdata.TuplePDF{N: n}
		for len(data) > 0 && len(tp.Tuples) < 4 {
			var tup pdata.Tuple
			weight := 0
			for k := next() % 5; k > 0; k-- {
				item, w := next()%n, next()
				tup.Alts = append(tup.Alts, pdata.Alternative{Item: item, Prob: float64(w)})
				weight += w
			}
			for k := range tup.Alts {
				tup.Alts[k].Prob /= float64(max(weight, 255)) // mass <= 1, < 1 for light tuples
			}
			tp.Tuples = append(tp.Tuples, tup)
		}
		if err := tp.Validate(); err != nil {
			t.Fatalf("decoded an invalid tuple pdf: %v", err)
		}
		o, want := hist.NewSSETuple(tp), endOrderColumns(tp)
		checkColumns(t, fmt.Sprintf("%+v", tp), o, append(order.Perm(n), order.Perm(n)...), want)
		bothWays(o, func(how string, s, e int, cost, rep float64) {
			if enum := ptest.ExactClairvoyantSSE(tp, s, e); math.Abs(cost-enum) > costTol {
				t.Fatalf("%+v: %s[%d,%d] = %v, enumeration %v", tp, how, s, e, cost, enum)
			}
			if math.Abs(cost-want[e][s]) > costTol || math.Abs(rep-want[e][n+s]) > costTol {
				t.Fatalf("%+v: %s[%d,%d] = (%v, %v), the sweep alone wrote (%v, %v)", tp, how, s, e, cost, rep, want[e][s], want[e][n+s])
			}
		})
	})
}
