package hist_test

import (
	"math"
	"math/rand"
	"testing"

	"probsyn/internal/gen"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/minimax"
	"probsyn/internal/numeric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

// --- the implementations the sweeps replaced, kept as references -----------

// naiveWeightedAbs is WeightedAbs as it was before it gained a sweep:
// value-major tables and a closure-driven convex-grid search per bucket.
type naiveWeightedAbs struct {
	n      int
	vs     pdata.ValueSet
	pw, ps []float64 // pw[ℓ*(n+1)+i+1] = Σ_{i'<=i} W≤(i', ℓ); ps likewise for S≤
	tw, ts numeric.Prefix
}

func newNaiveWeightedAbs(tab *pdata.PMFTable, kind metric.Kind, p metric.Params) *naiveWeightedAbs {
	n, k := tab.N(), tab.VS.Len()
	o := &naiveWeightedAbs{n: n, vs: tab.VS, pw: make([]float64, k*(n+1)), ps: make([]float64, k*(n+1))}
	totW, totS := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		var cw, cs float64
		for j := 0; j < k; j++ {
			w := tab.P[i][j] * kind.Weight(tab.VS.Values[j], p)
			cw += w
			cs += w * tab.VS.Values[j]
			base := j * (n + 1)
			o.pw[base+i+1] = o.pw[base+i] + cw
			o.ps[base+i+1] = o.ps[base+i] + cs
		}
		totW[i], totS[i] = cw, cs
	}
	o.tw, o.ts = numeric.NewPrefix(totW), numeric.NewPrefix(totS)
	return o
}

func (o *naiveWeightedAbs) costAt(l, s, e int) float64 {
	base := l * (o.n + 1)
	wle := o.pw[base+e+1] - o.pw[base+s]
	sle := o.ps[base+e+1] - o.ps[base+s]
	v := o.vs.Values[l]
	cost := v*(2*wle-o.tw.Range(s, e)) + o.ts.Range(s, e) - 2*sle
	if cost < 0 {
		cost = 0
	}
	return cost
}

func (o *naiveWeightedAbs) Cost(s, e int) (float64, float64) {
	l, c := numeric.MinConvexGrid(0, o.vs.Len()-1, func(l int) float64 { return o.costAt(l, s, e) })
	return c, o.vs.Values[l]
}

// naiveMaxAbs is MaxAbs as it was: every probe of the grid search
// re-evaluates the bucket's items, and both steps beside the grid minimizer
// are always solved, by the sorted-hull solver.
type naiveMaxAbs struct {
	vs           pdata.ValueSet
	itemW, itemS []float64 // itemW[i*k+j] = Σ_{j'<=j} w_{i,j'}; itemS likewise for w·v
	totW, totS   []float64
}

func newNaiveMaxAbs(tab *pdata.PMFTable, kind metric.Kind, p metric.Params) *naiveMaxAbs {
	n, k := tab.N(), tab.VS.Len()
	o := &naiveMaxAbs{vs: tab.VS, itemW: make([]float64, n*k), itemS: make([]float64, n*k),
		totW: make([]float64, n), totS: make([]float64, n)}
	for i := 0; i < n; i++ {
		var cw, cs float64
		for j := 0; j < k; j++ {
			w := tab.P[i][j] * kind.Weight(tab.VS.Values[j], p)
			cw += w
			cs += w * tab.VS.Values[j]
			o.itemW[i*k+j], o.itemS[i*k+j] = cw, cs
		}
		o.totW[i], o.totS[i] = cw, cs
	}
	return o
}

func (o *naiveMaxAbs) lineFor(i, l int) minimax.Line {
	k := o.vs.Len()
	return minimax.Line{A: 2*o.itemW[i*k+l] - o.totW[i], B: o.totS[i] - 2*o.itemS[i*k+l]}
}

func (o *naiveMaxAbs) costAt(l, s, e int) float64 {
	worst := 0.0
	for i := s; i <= e; i++ {
		ln := o.lineFor(i, l)
		if v := ln.A*o.vs.Values[l] + ln.B; v > worst {
			worst = v
		}
	}
	return worst
}

func (o *naiveMaxAbs) Cost(s, e int) (float64, float64) {
	k := o.vs.Len()
	lStar, best := numeric.MinConvexGrid(0, k-1, func(l int) float64 { return o.costAt(l, s, e) })
	bestRep := o.vs.Values[lStar]
	lines := make([]minimax.Line, 0, e-s+1)
	for _, seg := range [2]int{lStar - 1, lStar} {
		if seg < 0 || seg+1 >= k {
			continue
		}
		lines = lines[:0]
		for i := s; i <= e; i++ {
			lines = append(lines, o.lineFor(i, seg))
		}
		x, y := ptest.SortedHullMinimizeMax(lines, o.vs.Values[seg], o.vs.Values[seg+1])
		if y < best {
			best, bestRep = y, x
		}
	}
	if best < 0 {
		best = 0
	}
	return best, bestRep
}

// --- inputs ------------------------------------------------------------------

type sweepInput struct {
	name string
	tab  *pdata.PMFTable
}

func tableOf(t *testing.T, src pdata.Source) *pdata.PMFTable {
	t.Helper()
	vp := pdata.AsValuePDF(src)
	tab, err := pdata.NewPMFTable(vp, pdata.Support(vp))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// rawTable builds a pmf table from explicit rows, which lets a row carry
// no mass at all (a value pdf always puts its missing mass on 0).
func rawTable(values []float64, rows [][]float64) *pdata.PMFTable {
	return &pdata.PMFTable{VS: pdata.ValueSet{Values: values}, P: rows}
}

func detPDF(freqs ...float64) *pdata.ValuePDF { return pdata.Deterministic(freqs) }

// sweepInputs are the three input models at random plus inputs built to
// break a warm start: plateaus of the cost in the representative (where
// rounding, not the data, orders neighbouring grid points), optima that
// jump across the grid between neighbouring buckets, and degenerate grids.
func sweepInputs(t *testing.T) []sweepInput {
	rng := rand.New(rand.NewSource(131))
	var in []sweepInput
	add := func(name string, tab *pdata.PMFTable) { in = append(in, sweepInput{name, tab}) }
	for trial := 0; trial < 6; trial++ {
		add("basic", tableOf(t, ptest.RandomBasic(rng, 14, 30)))
		add("tuple-pdf", tableOf(t, ptest.RandomTuplePDF(rng, 14, 20, 3)))
		add("value-pdf", tableOf(t, ptest.RandomValuePDF(rng, 14, 3)))
		add("fractional value-pdf", tableOf(t, ptest.RandomFractionalValuePDF(rng, 14, 4)))
	}

	same := pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 1, Prob: 0.3}, {Freq: 2, Prob: 0.4}, {Freq: 5, Prob: 0.2}}}
	equal := &pdata.ValuePDF{N: 12, Items: make([]pdata.ItemPDF, 12)}
	for i := range equal.Items {
		equal.Items[i] = same.Clone()
	}
	add("all items equal", tableOf(t, equal))
	add("all items equal and certain", tableOf(t, detPDF(3, 3, 3, 3, 3, 3, 3, 3)))

	spike := equal.Clone()
	spike.Items[5] = pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 1000, Prob: 0.9}}}
	add("one spike", tableOf(t, spike))
	add("one certain spike", tableOf(t, detPDF(1, 1, 1, 1, 400, 1, 1, 1, 1, 1)))

	// Certain items: every even-sized bucket's cost is flat between its two
	// middle values, exactly so in floats for SAE, up to rounding for SARE.
	add("certain, distinct (|V| = n+1)", tableOf(t, detPDF(7, 3, 11, 5, 2, 13, 8, 1, 9, 4, 12, 6)))
	add("certain, ascending", tableOf(t, detPDF(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)))
	add("certain, two values", tableOf(t, detPDF(2, 9, 2, 9, 9, 2, 2, 9, 2, 9)))

	// Mirror pairs {0: 1-p, v: p} and {0: p, v: 1-p} with p not dyadic: a
	// bucket holding both has half its mass on 0, so its cost is flat over
	// every grid point the other items put between 0 and v — to rounding.
	mirror := &pdata.ValuePDF{N: 16, Items: make([]pdata.ItemPDF, 16)}
	for i := range mirror.Items {
		p := []float64{0.1, 0.3, 0.7, 1.0 / 3}[i/2%4]
		if i%2 == 1 {
			p = 1 - p
		}
		v := float64(6 + 3*(i/4))
		mirror.Items[i] = pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: v, Prob: p}, {Freq: float64(1 + i%5), Prob: 0}}}
	}
	add("mirror pairs (plateaus to rounding)", tableOf(t, mirror))

	// Probabilities in thirds over a shared grid: ties between grid points
	// that only rounding breaks.
	thirds := &pdata.ValuePDF{N: 12, Items: make([]pdata.ItemPDF, 12)}
	for i := range thirds.Items {
		a, b, c := float64(1+i%3), float64(4+i%2), float64(6+i%4)
		thirds.Items[i] = pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: a, Prob: 1.0 / 3}, {Freq: b, Prob: 1.0 / 3}, {Freq: c, Prob: 1.0 / 3}}}
	}
	add("thirds", tableOf(t, thirds))

	add("one-element value set", tableOf(t, detPDF(0, 0, 0, 0, 0)))
	add("two-element value set", tableOf(t, detPDF(0, 4, 4, 0, 4)))

	// Per-item mass below 1 and items of no mass at all.
	add("mass below one, zero-mass items", rawTable([]float64{0, 1, 2.5, 4, 8}, [][]float64{
		{0, 0.2, 0.1, 0, 0},
		{0, 0, 0, 0, 0},
		{0.1, 0, 0.3, 0.3, 0},
		{0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0},
		{0, 0.05, 0, 0, 0.6},
		{0.5, 0, 0, 0, 0},
		{0, 0, 0, 0, 0},
		{0, 0, 0.25, 0.25, 0.25},
	}))
	add("no mass anywhere", rawTable([]float64{0, 1, 2}, [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}))

	// Values either side of the SARE/MARE sanity constant c = 0.5, where
	// the relative weight 1/max(c, v) stops growing.
	straddle := &pdata.ValuePDF{N: 12, Items: make([]pdata.ItemPDF, 12)}
	for i := range straddle.Items {
		vals := []float64{0.1, 0.25, 0.49, 0.5, 0.51, 0.75, 2}
		a, b := vals[i%len(vals)], vals[(3*i+1)%len(vals)]
		straddle.Items[i] = pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: a, Prob: 0.45}, {Freq: b, Prob: 0.35}}}
	}
	add("straddling the sanity constant", tableOf(t, straddle))

	// |V| ≈ 2n: every item brings its own two values.
	wide := &pdata.ValuePDF{N: 24, Items: make([]pdata.ItemPDF, 24)}
	for i := range wide.Items {
		wide.Items[i] = pdata.ItemPDF{Entries: []pdata.FreqProb{
			{Freq: 10*rng.Float64() + 0.01*float64(i), Prob: 0.5 * rng.Float64()},
			{Freq: 40*rng.Float64() + 0.01*float64(i), Prob: 0.5 * rng.Float64()}}}
	}
	add("|V| about 2n", tableOf(t, wide))

	// The DP benchmarks' stress data in small: certain items in flat
	// segments plus noise, every value distinct, the first segment
	// straddling zero (nothing here validates frequencies).
	segmented := make([]float64, 96)
	for i := range segmented {
		segmented[i] = float64(i/12)*4 + rng.Float64()*0.5 - 0.25
	}
	add("segmented, all values distinct", tableOf(t, detPDF(segmented...)))
	return in
}

// benchSources are the generators the benchmark's hist-oracle workload
// draws from, one per input model.
func benchSources(n int) map[string]pdata.Source {
	rng := rand.New(rand.NewSource(137))
	return map[string]pdata.Source{
		"sensor (value-pdf)": gen.SensorGrid(rng, gen.DefaultSensor(n)),
		"mystiq (basic)":     gen.MystiQLinkage(rng, gen.DefaultMystiQ(n)),
		"tpch (tuple-pdf)":   gen.TPCHLineitem(rng, gen.DefaultTPCH(n, 4*n)),
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkSweep holds o's sweep and its Cost to the reference's bits, costs
// and representatives, over every bucket.
func checkSweep(t *testing.T, what string, o hist.SweepOracle, ref func(s, e int) (float64, float64)) {
	t.Helper()
	n := o.N()
	costs, reps := make([]float64, n), make([]float64, n)
	for e := 0; e < n; e++ {
		// Poison what the sweep must overwrite.
		for s := range costs {
			costs[s], reps[s] = math.NaN(), math.NaN()
		}
		o.CostsForEnd(e, costs, reps)
		for s := 0; s <= e; s++ {
			wc, wr := ref(s, e)
			if c, r := o.Cost(s, e); !sameBits(c, wc) || !sameBits(r, wr) {
				t.Fatalf("%s [%d,%d]: Cost = (%v, %v), reference (%v, %v)", what, s, e, c, r, wc, wr)
			}
			if !sameBits(costs[s], wc) || !sameBits(reps[s], wr) {
				t.Fatalf("%s [%d,%d]: CostsForEnd = (%v, %v), reference (%v, %v)", what, s, e, costs[s], reps[s], wc, wr)
			}
		}
	}
}

func TestWeightedAbsSweepMatchesCostAndNaive(t *testing.T) {
	p := metric.DefaultParams()
	for _, in := range sweepInputs(t) {
		for _, k := range []metric.Kind{metric.SAE, metric.SARE} {
			o, err := hist.NewWeightedAbs(in.tab, k, p)
			if err != nil {
				t.Fatal(err)
			}
			checkSweep(t, k.String()+" "+in.name, o, newNaiveWeightedAbs(in.tab, k, p).Cost)
		}
	}
}

func TestMaxAbsSweepMatchesCostAndNaive(t *testing.T) {
	p := metric.DefaultParams()
	for _, in := range sweepInputs(t) {
		for _, k := range []metric.Kind{metric.MAE, metric.MARE} {
			o, err := hist.NewMaxAbs(in.tab, k, p)
			if err != nil {
				t.Fatal(err)
			}
			checkSweep(t, k.String()+" "+in.name, o, newNaiveMaxAbs(in.tab, k, p).Cost)
		}
	}
}

// The benchmark's generators at a size where buckets are long and the grid
// is a few dozen values: the data the timed sweeps run on.
func TestAbsSweepsMatchNaiveOnGeneratedData(t *testing.T) {
	if testing.Short() {
		t.Skip("all buckets of three 160-item domains")
	}
	p := metric.DefaultParams()
	for name, src := range benchSources(160) {
		tab := tableOf(t, src)
		for _, k := range []metric.Kind{metric.SAE, metric.SARE} {
			o, err := hist.NewWeightedAbs(tab, k, p)
			if err != nil {
				t.Fatal(err)
			}
			checkSweep(t, k.String()+" "+name, o, newNaiveWeightedAbs(tab, k, p).Cost)
		}
	}
	for name, src := range benchSources(48) {
		tab := tableOf(t, src)
		for _, k := range []metric.Kind{metric.MAE, metric.MARE} {
			o, err := hist.NewMaxAbs(tab, k, p)
			if err != nil {
				t.Fatal(err)
			}
			checkSweep(t, k.String()+" "+name, o, newNaiveMaxAbs(tab, k, p).Cost)
		}
	}
}
