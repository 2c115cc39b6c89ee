package wavelet

// The code the leaf-first tree DP replaced, kept as the reference the
// production path is held to bit for bit (as denseTable is for the
// histogram DP): the dense n×|V| point-error tables with their binary
// search over the global value set, the forward sweep's full clamped
// budget-split scan, and the pruned merge that re-sliced the window for
// every budget and binary-searched the max metrics' crossing.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"probsyn/internal/engine"
	"probsyn/internal/gen"
	"probsyn/internal/haar"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/numeric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

// densePointErrors is the absolute family's evaluator as it was: per item,
// the cumulative weight and weight·value over the whole global value set.
type densePointErrors struct {
	vs           pdata.ValueSet
	itemW, itemS []float64
	totW, totS   []float64
}

func newDensePointErrors(t testing.TB, vp *pdata.ValuePDF, kind metric.Kind, p metric.Params) *densePointErrors {
	t.Helper()
	vs := pdata.Support(vp)
	tab, err := pdata.NewPMFTable(vp, vs)
	if err != nil {
		t.Fatal(err)
	}
	k := vs.Len()
	pe := &densePointErrors{
		vs:    vs,
		itemW: make([]float64, vp.N*k), itemS: make([]float64, vp.N*k),
		totW: make([]float64, vp.N), totS: make([]float64, vp.N),
	}
	for i := 0; i < vp.N; i++ {
		var cw, cs float64
		for j := 0; j < k; j++ {
			w := float64(tab.P[i][j] * kind.Weight(vs.Values[j], p))
			cw += w
			cs += float64(w * vs.Values[j])
			pe.itemW[i*k+j] = cw
			pe.itemS[i*k+j] = cs
		}
		pe.totW[i], pe.totS[i] = cw, cs
	}
	return pe
}

func (pe *densePointErrors) Err(i int, v float64) float64 {
	k := pe.vs.Len()
	j := numeric.SearchFloats(pe.vs.Values, v) // first index with value >= v
	if j < k && pe.vs.Values[j] == v {
		j++ // include the exact match in the <= side
	}
	var wle, sle float64
	if j > 0 {
		wle = pe.itemW[i*k+j-1]
		sle = pe.itemS[i*k+j-1]
	}
	// The conversions are production Err's and NewPointErrors': each
	// product rounds on its own on every architecture, on both sides.
	e := float64(v*(float64(2*wle)-pe.totW[i])) + pe.totS[i] - float64(2*sle)
	if e < 0 {
		e = 0
	}
	return e
}

// refErr is the point-error function the reference sweep prices leaves
// with: the dense tables for the absolute family, the production closed
// form (which this change did not touch) for the squared one.
func refErr(t testing.TB, vp *pdata.ValuePDF, pe *PointErrors, kind metric.Kind, p metric.Params) func(int, float64) float64 {
	if kind == metric.SSRE {
		return pe.Err
	}
	return newDensePointErrors(t, vp, kind, p).Err
}

// refTables recomputes every kept level table of d by the pre-change
// forward sweep — math.Max behind combine, heap-free but otherwise
// verbatim: for every state and decision, the scan over every split
// bl in [0, budget] with both sides clamped to the child cap. It reads
// d's layout, grids and incoming values (which the change left alone;
// TestIncomingValuesMatchPathSums holds them to their own reference) and
// none of its tables.
func refTables(d *treeDP, errf func(int, float64) float64) [][]float64 {
	combine := refCombine(d.cumulative)
	leaf := func(j int, v float64, out []float64) {
		li, ri, _ := haar.Children(j, d.n)
		drop := combine(errf(li, v), errf(ri, v))
		out[0] = drop
		if len(out) > 1 {
			best := drop
			if r := combine(errf(li, v+d.mu[j]), errf(ri, v-d.mu[j])); r < best {
				best = r
			}
			out[1] = best
		}
	}
	res := make([][]float64, d.levels-1)
	for l := d.levels - 2; l >= 0; l-- {
		offs := d.offs[l]
		entries := d.bcap[l] + 1
		fused := l == d.levels-2
		ccap := min(d.B, 1)
		if !fused {
			ccap = d.bcap[l+1]
		}
		centries := ccap + 1
		res[l] = make([]float64, offs[1<<l]*entries)
		lbuf, rbuf := make([]float64, centries), make([]float64, centries)
		for i := 0; i < 1<<l; i++ {
			j := 1<<l + i
			for s := offs[i]; s < offs[i+1]; s++ {
				local := s - offs[i]
				var v float64
				if d.vals[l] != nil {
					v = d.vals[l][s]
				}
				out := res[l][s*entries : (s+1)*entries]
				for k := range out {
					out[k] = math.Inf(1)
				}
				for dd := 0; dd < 2; dd++ { // drop, then keep
					var w float64
					if dd > 0 {
						w = d.mu[j]
					}
					var lt, rt []float64
					if fused {
						leaf(2*j, v+w, lbuf)
						leaf(2*j+1, v-w, rbuf)
						lt, rt = lbuf, rbuf
					} else {
						var cl, cr int
						if d.lq(l + 1) {
							cl = d.offs[l+1][2*i] + d.snap(l+1, 2*i, v+w)
							cr = d.offs[l+1][2*i+1] + d.snap(l+1, 2*i+1, v-w)
						} else {
							cl = d.offs[l+1][2*i] + 2*local + dd
							cr = d.offs[l+1][2*i+1] + 2*local + dd
						}
						lt = res[l+1][cl*centries : (cl+1)*centries]
						rt = res[l+1][cr*centries : (cr+1)*centries]
					}
					denseMerge(combine, out[min(dd, 1):], lt, rt)
				}
			}
		}
	}
	return res
}

func refCombine(cumulative bool) func(a, b float64) float64 {
	if cumulative {
		return func(a, b float64) float64 { return a + b }
	}
	return math.Max
}

// denseMerge lowers out[b] to the first split attaining the minimum over
// every split bl in [0, b], both sides clamped to the rows' last index.
func denseMerge(combine func(a, b float64) float64, out, lt, rt []float64) {
	c := len(lt) - 1
	for b := range out {
		best := out[b]
		for bl := 0; bl <= b; bl++ {
			if x := combine(lt[min(bl, c)], rt[min(b-bl, c)]); x < best {
				best = x
			}
		}
		out[b] = best
	}
}

// walkMerge is treeDP.merge as it was before it indexed the window in
// place: per budget it slices the unclamped window out of both rows, and
// for the max metrics binary-searches the crossing. It evaluates the
// same splits merge does, so it is the reference for merge's split count
// as well as its values.
func walkMerge(cumulative bool, out, lt, rt []float64) (scanned int64) {
	c := len(lt) - 1
	at := 0 // left budget of the last best split: where the next walk starts
	for b := range out {
		eb := min(b, 2*c)
		lo, hi := max(0, eb-c), min(eb, c)
		l, r := lt[lo:hi+1], rt[eb-hi:eb-lo+1] // l[k] splits against r[len(l)-1-k]
		best := out[b]
		if cumulative {
			n := len(l)
			k0 := min(max(at-lo, 0), n-1)
			if x := l[k0] + r[n-1-k0]; x < best {
				best, at = x, lo+k0
			}
			k := k0 + 1
			for ; k < n && l[n-1]+r[n-1-k] < best; k++ {
				if x := l[k] + r[n-1-k]; x < best {
					best, at = x, lo+k
				}
			}
			scanned += int64(k - k0)
			for k = k0 - 1; k >= 0 && l[k]+r[n-1] < best; k-- {
				if x := l[k] + r[n-1-k]; x < best {
					best, at = x, lo+k
				}
			}
			scanned += int64(k0 - 1 - k)
		} else {
			k, n := 0, len(l) // first k with l[k] <= r's opposite entry
			for k < n {
				if mid := int(uint(k+n) >> 1); l[mid] <= r[len(l)-1-mid] {
					n = mid
				} else {
					k = mid + 1
				}
			}
			if k > 0 {
				if x := max(l[k-1], r[len(l)-k]); x < best {
					best = x
				}
				scanned++
			}
			if k < len(l) {
				if x := max(l[k], r[len(l)-1-k]); x < best {
					best = x
				}
				scanned++
			}
		}
		out[b] = best
	}
	return scanned
}

// denseSplits is the closed-form number of budget splits the dense scan
// evaluates at level l: per state and decision, m(m+1)/2 with m the
// number of budgets the decision leaves to the children.
func denseSplits(d *treeDP, l int) int64 {
	var total int64
	entries := d.bcap[l] + 1
	for i := 0; i < 1<<l; i++ {
		states := int64(d.offs[l][i+1] - d.offs[l][i])
		for dd := 0; dd < 2; dd++ {
			m := int64(entries - min(dd, 1))
			total += states * m * (m + 1) / 2
		}
	}
	return total
}

// buildTree runs the production forward sweep the way NewSweep does.
func buildTree(t testing.TB, src pdata.Source, kind metric.Kind, p metric.Params, B, q int, pool *engine.Pool) (*treeDP, *pdata.ValuePDF) {
	t.Helper()
	unpadded := pdata.AsValuePDF(src)
	set := new(Buffers)
	q, err := treeQuant(haar.Pow2Ceil(unpadded.N), B, q)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := set.fillLeaves(unpadded, kind, p)
	if err != nil {
		t.Fatal(err)
	}
	return newTreeDP(&set.dp, vp.N, unpadded.N, min(B, vp.N), set.mu, &set.pe, kind.Cumulative(), q, pool), vp
}

// assertTablesEqual holds got to want cell for cell by Float64bits and
// checks what merge's pruning rests on: every row non-increasing in
// budget, as floats.
func assertTablesEqual(t *testing.T, tag string, d *treeDP, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d level tables, reference has %d", tag, len(got), len(want))
	}
	for l := range want {
		if len(got[l]) != len(want[l]) {
			t.Fatalf("%s: level %d has %d cells, reference %d", tag, l, len(got[l]), len(want[l]))
		}
		entries := d.bcap[l] + 1
		for c := range want[l] {
			if math.Float64bits(got[l][c]) != math.Float64bits(want[l][c]) {
				t.Fatalf("%s: level %d state %d budget %d: %v (%#x), reference %v (%#x)", tag, l, c/entries, c%entries,
					got[l][c], math.Float64bits(got[l][c]), want[l][c], math.Float64bits(want[l][c]))
			}
			if math.Signbit(got[l][c]) {
				t.Fatalf("%s: level %d state %d budget %d holds %v: merge's bit-identity needs rows free of −0", tag, l, c/entries, c%entries, got[l][c])
			}
			if c%entries > 0 && !(got[l][c] <= got[l][c-1]) {
				t.Fatalf("%s: level %d state %d: row rises from %v to %v at budget %d", tag, l, c/entries, got[l][c-1], got[l][c], c%entries)
			}
		}
	}
}

var refKinds = []metric.Kind{metric.SAE, metric.SARE, metric.MAE, metric.MARE, metric.SSRE}

type refMode struct {
	name string
	q    int
}

var refModes = []refMode{{"exact", 0}, {"q2", 2}, {"q8", 8}}

// TestTreeDPMatchesReference: every cell of every level table equals the
// dense-scan, dense-point-error reference's, at every worker count, and
// the counters account for exactly the reference's scan. The domains
// 9, 17, 33 and 65 pad to trees holding whole zero subtrees at several
// levels (solveZeroStates' closed form), 5 to one whose zero tail covers
// finest detail nodes only.
func TestTreeDPMatchesReference(t *testing.T) {
	p := metric.Params{C: 0.5}
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{2, 3, 4, 5, 8, 9, 13, 17, 33, 64, 65} {
		sources := map[string]pdata.Source{
			"basic": ptest.RandomBasic(rng, n, 2*n),
			"tuple": ptest.RandomTuplePDF(rng, n, 2*n, 3),
			"value": ptest.RandomFractionalValuePDF(rng, n, 4),
		}
		// Every item at MaxFloat64: the averages overflow, so incoming
		// values reach +Inf and NaN, which every row must price as the
		// general loop does (+Inf), zero subtrees included.
		huge := &pdata.ValuePDF{N: n, Items: make([]pdata.ItemPDF, n)}
		for i := range huge.Items {
			huge.Items[i].Entries = []pdata.FreqProb{{Freq: math.MaxFloat64, Prob: 1}}
		}
		sources["overflow"] = huge
		for srcName, src := range sources {
			for _, kind := range refKinds {
				for _, mode := range refModes {
					for _, B := range []int{0, 1, 2, 5, n} {
						tag := fmt.Sprintf("n=%d/%s/%v/%s/B=%d", n, srcName, kind, mode.name, B)
						d, vp := buildTree(t, src, kind, p, B, mode.q, nil)
						want := refTables(d, refErr(t, vp, d.pe, kind, p))
						assertTablesEqual(t, tag, d, d.res, want)
						var dense int64
						for l := range d.res {
							dense += denseSplits(d, l)
						}
						if got := d.stats.CandidatesScanned + d.stats.CandidatesPruned; got != dense || d.stats.CandidatesPruned < 0 {
							t.Fatalf("%s: %d scanned + %d pruned, the dense scan has %d splits", tag, d.stats.CandidatesScanned, d.stats.CandidatesPruned, dense)
						}
						for _, workers := range []int{2, 5} {
							pool := engine.New(engine.Options{Workers: workers, Grain: 1})
							dw, _ := buildTree(t, src, kind, p, B, mode.q, pool)
							assertTablesEqual(t, fmt.Sprintf("%s/workers=%d", tag, workers), d, dw.res, want)
							if dw.stats != d.stats {
								t.Fatalf("%s: workers=%d counted %+v, serial %+v", tag, workers, dw.stats, d.stats)
							}
						}
					}
				}
			}
		}
	}
}

// TestTreeDPStatsPerLevel re-solves one level at a time and holds each
// level's scanned + pruned to its closed-form dense count, and the
// point-error evaluations to the last internal level, whose leaves are the
// only ones priced.
func TestTreeDPStatsPerLevel(t *testing.T) {
	p := metric.Params{C: 0.5}
	src := ptest.RandomFractionalValuePDF(rand.New(rand.NewSource(5)), 32, 4)
	for _, kind := range []metric.Kind{metric.SAE, metric.MAE} {
		for _, mode := range refModes {
			for _, B := range []int{0, 1, 3, 7, 32} {
				d, _ := buildTree(t, src, kind, p, B, mode.q, nil)
				total := d.stats
				var sum hist.DPStats
				for l := d.levels - 2; l >= 0; l-- {
					d.stats = hist.DPStats{}
					d.solveStates(l, 0, 0, d.offs[l][1<<l])
					st := d.stats
					if got, want := st.CandidatesScanned+st.CandidatesPruned, denseSplits(d, l); got != want || st.CandidatesPruned < 0 || st.CandidatesScanned <= 0 {
						t.Fatalf("%v/%s/B=%d level %d: %d scanned + %d pruned, dense scan has %d", kind, mode.name, B, l, st.CandidatesScanned, st.CandidatesPruned, want)
					}
					if (st.CostEvals > 0) != (l == d.levels-2) {
						t.Fatalf("%v/%s/B=%d level %d: %d point-error evals", kind, mode.name, B, l, st.CostEvals)
					}
					sum.Add(st)
				}
				if sum != total {
					t.Fatalf("%v/%s/B=%d: levels sum to %+v, the build counted %+v", kind, mode.name, B, sum, total)
				}
			}
		}
	}
}

// TestTreeDPMatchesReferenceAtScale is the same comparison on the
// benchmark's three DP shapes (bench/builds.go's wavelet-dp round) and on
// serve-mutate's live wavelet before and after its first append (512
// items, then 516 padded to 1024), and holds their work counters to the
// unit (scanned + pruned is the dense scan's split count; a sum-metric
// scan of the whole unclamped interior would read 1,244,202 and 3,836,202
// scanned). The padded build's zero subtrees cost one point error a
// state: it may price at most 1.1x the unpadded build's point errors
// (pricing them like real nodes took 2x).
func TestTreeDPMatchesReferenceAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale reference comparison skipped in -short")
	}
	p := metric.DefaultParams()
	pool := engine.New(engine.Options{Workers: 2})
	counted := map[string]hist.DPStats{}
	for _, c := range []struct {
		name  string
		kind  metric.Kind
		n, q  int
		stats hist.DPStats
	}{
		{"SAE-exact-n512", metric.SAE, 512, 0, hist.DPStats{CandidatesScanned: 553582, CandidatesPruned: 1728700, CostEvals: 524288}},
		{"MAE-exact-n512", metric.MAE, 512, 0, hist.DPStats{CandidatesScanned: 553247, CandidatesPruned: 1729035, CostEvals: 524288}},
		{"SAE-q32-n2048", metric.SAE, 2048, 32, hist.DPStats{CandidatesScanned: 1095097, CandidatesPruned: 4694897, CostEvals: 262144}},
		{"SAE-q32-n512", metric.SAE, 512, 32, hist.DPStats{CandidatesScanned: 180548, CandidatesPruned: 987622, CostEvals: 65536}},
		{"SAE-q32-n516", metric.SAE, 516, 32, hist.DPStats{CandidatesScanned: 252638, CandidatesPruned: 2456140, CostEvals: 70112}},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := gen.SensorGrid(rand.New(rand.NewSource(int64(c.n))), gen.DefaultSensor(c.n))
			d, vp := buildTree(t, src, c.kind, p, 32, c.q, pool)
			assertTablesEqual(t, c.name, d, d.res, refTables(d, refErr(t, vp, d.pe, c.kind, p)))
			if d.stats != c.stats {
				t.Fatalf("%s: counted %+v, want %+v", c.name, d.stats, c.stats)
			}
			counted[c.name] = d.stats
		})
	}
	padded, unpadded := counted["SAE-q32-n516"].CostEvals, counted["SAE-q32-n512"].CostEvals
	if unpadded == 0 || float64(padded) > 1.1*float64(unpadded) {
		t.Fatalf("n=516 (padded to 1024) priced %d point errors, n=512 %d: more than 1.1x", padded, unpadded)
	}
}

// mergePalette spans what a merge's bound must survive: zero, a
// subnormal, ties, and magnitudes whose sums round away the smaller or
// overflow. It holds no value below zero, −0 included: the DP's rows are
// errors, and assertTablesEqual checks they never hold −0.
var mergePalette = []float64{
	0, math.SmallestNonzeroFloat64, 1e-300, 0.1, 0.2, 0.3,
	1, 2, 3, 1 << 53, 1e10, 1e300, math.MaxFloat64,
}

// fuzzRow turns n bytes (missing ones read as 0) into a row non-increasing
// as floats: a byte names a palette value, or past the palette a multiple
// of 1/7, and the row is the values sorted descending.
func fuzzRow(data []byte, n int) []float64 {
	row := make([]float64, n)
	for k := range row {
		var b byte
		if k < len(data) {
			b = data[k]
		}
		if int(b) < len(mergePalette) {
			row[k] = mergePalette[b]
		} else {
			row[k] = float64(b%32) / 7
		}
	}
	slices.SortFunc(row, func(a, b float64) int { return cmp.Compare(b, a) })
	return row
}

// checkMerge runs two decisions into one out row of m+1 entries, as
// solveStates makes them: drop (rows[0], rows[1]) into out, then retain
// (rows[2], rows[3]) into out[1:], which the first call has prefilled. It
// holds merge to the dense scan and to walkMerge by Float64bits after
// each decision, and its split count to walkMerge's.
func checkMerge(t *testing.T, tag string, cumulative bool, m int, rows [4][]float64) {
	t.Helper()
	got, walk, dense := make([]float64, m+1), make([]float64, m+1), make([]float64, m+1)
	for b := range got {
		got[b], walk[b], dense[b] = math.Inf(1), math.Inf(1), math.Inf(1)
	}
	d := &treeDP{cumulative: cumulative}
	for dd := 0; dd < 2; dd++ {
		lt, rt := rows[2*dd], rows[2*dd+1]
		n := d.merge(got[dd:], lt, rt)
		nw := walkMerge(cumulative, walk[dd:], lt, rt)
		denseMerge(refCombine(cumulative), dense[dd:], lt, rt)
		for b := range dense {
			if g := math.Float64bits(got[b]); g != math.Float64bits(dense[b]) || g != math.Float64bits(walk[b]) {
				t.Fatalf("%scumulative=%v decision %d, rows %v / %v: out[%d] = %v (%#x), walk %v, dense %v (%#x)",
					tag, cumulative, dd, lt, rt, b, got[b], g, walk[b], dense[b], math.Float64bits(dense[b]))
			}
		}
		if n != nw {
			t.Fatalf("%scumulative=%v decision %d, rows %v / %v into %d budgets: merge evaluated %d splits, walkMerge %d",
				tag, cumulative, dd, lt, rt, m+1-dd, n, nw)
		}
	}
}

// FuzzTreeMerge holds merge to the dense scan and to walkMerge (values by
// Float64bits, and the split count) through checkMerge. Bytes: the child
// rows' last index, out's length, then the four rows.
func FuzzTreeMerge(f *testing.F) {
	f.Add([]byte{4, 9, 0, 1, 1, 0, 1, 20, 20, 20, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1}, true)
	f.Add([]byte{3, 8, 13, 12, 11, 1, 12, 12, 2, 2, 40, 41, 42, 43, 5, 5, 5, 5}, true)
	f.Add([]byte{5, 12, 60, 50, 40, 30, 20, 10, 70, 60, 50, 40, 30, 20, 1, 1, 1, 1, 1, 1}, false)
	f.Add([]byte{8, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12, 12, 12, 12, 12, 12, 12, 12, 12}, false)
	f.Fuzz(func(t *testing.T, data []byte, cumulative bool) {
		if len(data) < 2 {
			return
		}
		c := int(data[0] % 9)
		m := 1 + int(data[1])%(2*c+3) // past 2c+1 the saturated split repeats
		rest := data[2:]
		var rows [4][]float64
		for k := range rows {
			rows[k] = fuzzRow(rest[min(k*(c+1), len(rest)):], c+1)
		}
		checkMerge(t, "", cumulative, m, rows)
	})
}

// TestTreeMergeAdversarialRows pins merge's values and split counts to
// walkMerge's, on every test run, on the rows that stress its cursor and its
// walk: ties and flat runs (every split equal), a row all zero against
// one all MaxFloat64 (the crossing at either end of every window),
// subnormals beside zero, sums that round away the smaller term or
// overflow, steps that move the crossing by several splits between two
// budgets, and seeded random palette rows — each as both decisions of
// one out row, the second into the row the first prefilled, at every cap
// c ≤ 8 and every out length up to 2c+2.
func TestTreeMergeAdversarialRows(t *testing.T) {
	const maxF, tiny = math.MaxFloat64, math.SmallestNonzeroFloat64
	fill := func(n int, v float64) []float64 { return slices.Repeat([]float64{v}, n) }
	step := func(n, at int, hi, lo float64) []float64 { // hi before at, lo from it
		row := fill(n, lo)
		for k := range min(at, n) {
			row[k] = hi
		}
		return row
	}
	rng := rand.New(rand.NewSource(54))
	for c := 0; c <= 8; c++ {
		n := c + 1
		families := map[string][4][]float64{
			"flat":       {fill(n, 1), fill(n, 1), fill(n, 1), fill(n, 1)},
			"zero-max":   {fill(n, 0), fill(n, maxF), fill(n, maxF), fill(n, 0)},
			"max-max":    {fill(n, maxF), fill(n, maxF), step(n, 1, maxF, 1), step(n, n-1, maxF, 0)},
			"subnormal":  {step(n, n/2, tiny, 0), step(n, 1, 2*tiny, tiny), fill(n, tiny), step(n, n-1, tiny, 0)},
			"rounding":   {step(n, 1, 1<<53, 1), step(n, n/2, 1e300, 1e-300), step(n, 2, 1<<53, 0), fill(n, 1<<53)},
			"late-cross": {step(n, n-1, 3, 0), step(n, 1, 2, 1), step(n, n/2, 3, 2), step(n, 1, 3, 0)},
		}
		for k := 0; k < 40; k++ {
			data := make([]byte, 4*n)
			for i := range data {
				data[i] = byte(rng.Intn(len(mergePalette) + 8))
			}
			var rows [4][]float64
			for r := range rows {
				rows[r] = fuzzRow(data[r*n:], n)
			}
			families[fmt.Sprintf("random-%d", k)] = rows
		}
		for name, rows := range families {
			for m := 1; m <= 2*c+2; m++ {
				for _, cumulative := range []bool{true, false} {
					checkMerge(t, fmt.Sprintf("c=%d %s m=%d: ", c, name, m), cumulative, m, rows)
				}
			}
		}
	}
}

// pointErrorFixtures are the value pdfs that tell point-error evaluators
// apart: unsorted and duplicate entries, an explicit frequency 0, mass
// < 1, an item with no zero mass, one with all of it, a 200-breakpoint
// item (Err's binary-search branch), pad items, and one value shared by
// every item. probes lists, for a fixture, every breakpoint, the values
// either side of it, and the extremes, ±0 included.
func pointErrorFixtures() (fixtures map[string]*pdata.ValuePDF, probes func(*pdata.ValuePDF) []float64) {
	long := pdata.ItemPDF{}
	for k := 200; k >= 1; k-- { // 200 breakpoints, listed descending
		long.Entries = append(long.Entries, pdata.FreqProb{Freq: float64(k) * 0.37, Prob: 1.0 / 256})
	}
	fp := func(f, p float64) pdata.FreqProb { return pdata.FreqProb{Freq: f, Prob: p} }
	vp := new(Buffers).pad(&pdata.ValuePDF{N: 7, Items: []pdata.ItemPDF{
		{Entries: []pdata.FreqProb{fp(7, 0.1), fp(2, 0.3), fp(11, 0.05), fp(3, 0.2)}},           // unsorted
		{Entries: []pdata.FreqProb{fp(4, 0.1), fp(2, 0.3), fp(4, 0.2), fp(2, 0.1), fp(4, 0.1)}}, // duplicate frequencies
		{Entries: []pdata.FreqProb{fp(0, 0.25), fp(5, 0.5)}},                                    // explicit frequency 0
		{Entries: []pdata.FreqProb{fp(1, 0.125), fp(9, 0.25)}},                                  // mass < 1
		{Entries: []pdata.FreqProb{fp(3, 1)}},                                                   // no zero mass
		{},                                                                                      // all mass at zero
		long,
	}}) // item 7 is a pad item
	shared := &pdata.ValuePDF{N: 4, Items: []pdata.ItemPDF{
		{Entries: []pdata.FreqProb{fp(6, 0.5)}}, {Entries: []pdata.FreqProb{fp(6, 1)}},
		{Entries: []pdata.FreqProb{fp(6, 0.25), fp(6, 0.25)}}, {Entries: []pdata.FreqProb{fp(6, 0.75)}},
	}}
	return map[string]*pdata.ValuePDF{"mixed": vp, "one shared value": shared}, func(vp *pdata.ValuePDF) []float64 {
		probes := []float64{-3, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1e9, math.Inf(1), math.Inf(-1)}
		for _, v := range pdata.Support(vp).Values { // every breakpoint, and either side of it
			probes = append(probes, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)), v-0.01, v+0.01)
		}
		return probes
	}
}

// TestPointErrorsMatchDense: the own-support runs return the dense
// tables' Err to the bit, on the shapes that tell the two apart.
func TestPointErrorsMatchDense(t *testing.T) {
	fixtures, probesOf := pointErrorFixtures()
	for name, vp := range fixtures {
		probes := probesOf(vp)
		for _, kind := range []metric.Kind{metric.SAE, metric.SARE, metric.MAE, metric.MARE} {
			p := metric.Params{C: 0.5}
			pe, err := NewPointErrors(vp, kind, p)
			if err != nil {
				t.Fatal(err)
			}
			dense := newDensePointErrors(t, vp, kind, p)
			for i := 0; i < vp.N; i++ {
				if math.Float64bits(pe.totW[i]) != math.Float64bits(dense.totW[i]) || math.Float64bits(pe.totS[i]) != math.Float64bits(dense.totS[i]) {
					t.Fatalf("%s/%v item %d: totals (%v, %v), dense (%v, %v)", name, kind, i, pe.totW[i], pe.totS[i], dense.totW[i], dense.totS[i])
				}
				for _, v := range probes {
					if got, want := pe.Err(i, v), dense.Err(i, v); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%v: Err(%d, %v) = %v (%#x), dense %v (%#x)", name, kind, i, v, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
	nan := &pdata.ValuePDF{N: 1, Items: []pdata.ItemPDF{{Entries: []pdata.FreqProb{{Freq: math.NaN(), Prob: 0.5}}}}}
	if _, err := NewPointErrors(nan, metric.SAE, metric.Params{C: 0.5}); err == nil {
		t.Fatal("a NaN frequency built point errors, want the error the dense tables gave")
	}
}

// TestErrSweepMatchesErr: the leaf sweep gives Err's bits at every value
// of a list, for both metric families, on the fixtures that tell point
// evaluators apart. The lists climb through every breakpoint with
// repeats and both zeros (the 200-breakpoint item crosses Err's
// binary-search threshold), and others go down, restart after +Inf or
// −Inf, or hold a NaN followed by smaller values: a cursor that did not
// restart there would keep a count of breakpoints too high.
func TestErrSweepMatchesErr(t *testing.T) {
	fixtures, probesOf := pointErrorFixtures()
	rng := rand.New(rand.NewSource(47))
	for name, vp := range fixtures {
		asc := probesOf(vp)
		slices.Sort(asc)
		var climb, desc []float64
		for _, v := range asc {
			climb = append(climb, v, v)
		}
		climb = append(climb, math.Copysign(0, -1), 0, math.Copysign(0, -1)) // equal values, in either order
		for k := len(asc) - 1; k >= 0; k-- {
			desc = append(desc, asc[k])
		}
		h := len(asc) / 2
		lists := map[string][]float64{
			"empty":         nil,
			"ascending":     asc,
			"repeats":       climb,
			"descending":    desc,
			"after +Inf":    slices.Concat(asc[h:], []float64{math.Inf(1)}, asc[:h]),
			"after -Inf":    slices.Concat(asc[h:], []float64{math.Inf(-1)}, asc),
			"after NaN":     slices.Concat(asc[h:], []float64{math.NaN()}, asc[:h]),
			"NaN then more": slices.Concat(asc[:h], []float64{math.NaN(), math.NaN()}, asc[h:]),
			"shuffled":      slices.Clone(asc),
		}
		rng.Shuffle(len(lists["shuffled"]), func(a, b int) {
			lists["shuffled"][a], lists["shuffled"][b] = lists["shuffled"][b], lists["shuffled"][a]
		})
		for _, kind := range refKinds {
			pe, err := NewPointErrors(vp, kind, metric.Params{C: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < vp.N; i++ {
				for listName, list := range lists {
					out := make([]float64, len(list))
					pe.errSweep(i, list, out)
					for k, v := range list {
						if got, want := out[k], pe.Err(i, v); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s/%v item %d, %s list: sweep at [%d] = %v gives %v (%#x), Err %v (%#x)",
								name, kind, i, listName, k, v, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}
