package wavelet

// References for the two things the tree DP says once: the incoming
// values its top-down pass lays out, and the root scan with and without
// the drop decision.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"regexp"
	"strconv"
	"testing"

	"probsyn/internal/haar"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

// pathSum is the incoming value of local state s of node j, derived from
// nothing but the state encoding: s's bits, least significant first, are
// the drop-or-keep decisions of j's parent, grandparent, ... node 1 and
// finally c0; the value is the retained ancestors' expected values summed
// top-down, added where the path to j descends left and subtracted where
// it descends right.
func pathSum(d *treeDP, j, s int) float64 {
	depth := bits.Len(uint(j)) - 1
	dec := make([]int, depth+1) // dec[0]: c0; dec[k]: j's ancestor at level k-1
	for k := depth; k >= 1; k-- {
		dec[k], s = s%2, s/2
	}
	dec[0] = s
	var v float64
	if dec[0] > 0 {
		v = d.mu[0]
	}
	for k := 1; k <= depth; k++ {
		a := j >> (depth - k + 1)
		if dec[k] == 0 {
			continue
		}
		if w := d.mu[a]; j>>(depth-k)&1 == 0 {
			v += w
		} else {
			v -= w
		}
	}
	return v
}

// TestIncomingValuesMatchPathSums holds every level's incoming values, all
// of which the set keeps, to pathSum by Float64bits (exact levels) or to
// the node's grid blo + k·step (quantized levels).
func TestIncomingValuesMatchPathSums(t *testing.T) {
	p := metric.Params{C: 0.5}
	rng := rand.New(rand.NewSource(25))
	for _, mode := range []refMode{{"restricted", 0}, {"q4", 4}, {"q16", 16}} {
		for _, n := range []int{4, 7, 8, 16, 32, 64} {
			tag := fmt.Sprintf("%s/n=%d", mode.name, n)
			d, _ := buildTree(t, ptest.RandomFractionalValuePDF(rng, n, 4), metric.SAE, p, 3, mode.q, nil)
			if len(d.vals) != d.levels-1 {
				t.Fatalf("%s: %d levels of incoming values for %d internal levels", tag, len(d.vals), d.levels-1)
			}
			for l, vals := range d.vals {
				if len(vals) != d.offs[l][1<<l] {
					t.Fatalf("%s: level %d holds %d incoming values for %d states", tag, l, len(vals), d.offs[l][1<<l])
				}
				for i := 0; i < 1<<l; i++ {
					for s, got := range vals[d.offs[l][i]:d.offs[l][i+1]] {
						want := pathSum(d, 1<<l+i, s)
						if d.lq(l) {
							want = d.blo[l][i] + float64(s)*d.gstep[l][i]
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: level %d node %d state %d: incoming value %v (%#x), reference %v (%#x)",
								tag, l, 1<<l+i, s, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestIncomingOrderSortsStates holds the orders the leaf sweep prices a
// node's states in: each lists every local state of its node once, in
// non-decreasing order of incoming value. An exact DP's set keeps the
// order of every level above the last internal one, and the sweep merges
// each last-level node's from the level above's as it reaches it
// (leafOrder). A quantized DP builds none: its last internal level is on
// its grid, whose order is the identity. Over n = 4…64 every level depth
// from 0 to 4 is checked in some tree, each merged from all the levels
// above it; q4 is exact at n <= 8 and quantizes only the last internal
// level at n = 16.
func TestIncomingOrderSortsStates(t *testing.T) {
	p := metric.Params{C: 0.5}
	rng := rand.New(rand.NewSource(47))
	for _, mode := range []refMode{{"restricted", 0}, {"q4", 4}} {
		for _, n := range []int{4, 7, 8, 16, 32, 64} {
			tag := fmt.Sprintf("%s/n=%d", mode.name, n)
			d, _ := buildTree(t, ptest.RandomFractionalValuePDF(rng, n, 4), metric.SAE, p, 3, mode.q, nil)
			if d.quant > 0 && d.ord != nil {
				t.Fatalf("%s: a quantized DP built incoming-value orders", tag)
			}
			check := func(l, i int, ord []int32, vals []float64) {
				lo, hi := d.offs[l][i], d.offs[l][i+1]
				if len(ord) != hi-lo {
					t.Fatalf("%s: level %d node %d orders %d of its %d states", tag, l, 1<<l+i, len(ord), hi-lo)
				}
				seen := make([]bool, hi-lo)
				for k, s := range ord {
					if s < 0 || int(s) >= hi-lo || seen[s] {
						t.Fatalf("%s: level %d node %d lists state %d at %d: not a permutation of its %d states", tag, l, 1<<l+i, s, k, hi-lo)
					}
					seen[s] = true
					if k > 0 && !(vals[ord[k-1]] <= vals[s]) {
						t.Fatalf("%s: level %d node %d: state %d (%v) follows state %d (%v)", tag, l, 1<<l+i, s, vals[s], ord[k-1], vals[ord[k-1]])
					}
				}
			}
			last := d.levels - 2
			if d.quant == 0 && len(d.ord) != last {
				t.Fatalf("%s: an exact DP ordered %d levels above its last internal one, %d", tag, len(d.ord), last)
			}
			for l, ord := range d.ord {
				for i := 0; i < 1<<l; i++ {
					lo, hi := d.offs[l][i], d.offs[l][i+1]
					check(l, i, ord[lo:hi], d.vals[l][lo:hi])
				}
			}
			buf := make([]int32, d.offs[last][1<<last])
			for i := 0; i < 1<<last; i++ {
				lo, hi := d.offs[last][i], d.offs[last][i+1]
				check(last, i, d.leafOrder(i, 0, hi-lo, buf), d.vals[last][lo:hi])
			}
		}
	}
}

// TestRootScanMatchesBruteForce: at every budget the sweep's cost is the
// minimum expected error over every coefficient subset within the budget,
// and the extracted synopsis attains it. n = 2 takes rootBest's leafTables
// arm, n > 2 its level-0 table arm; the sparse source is one whose optimum
// drops the root.
func TestRootScanMatchesBruteForce(t *testing.T) {
	p := metric.Params{C: 0.5}
	rng := rand.New(rand.NewSource(52))
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	for _, n := range []int{2, 4, 8} {
		sparse := &pdata.ValuePDF{N: n, Items: make([]pdata.ItemPDF, n)}
		for i := range sparse.Items {
			sparse.Items[i].Entries = []pdata.FreqProb{{Freq: 4 + 4*rng.Float64(), Prob: 0.1 + 0.2*rng.Float64()}}
		}
		for srcName, src := range map[string]*pdata.ValuePDF{"random": ptest.RandomValuePDF(rng, n, 3), "sparse": sparse} {
			c := haar.Forward(src.ExpectedFreqs())
			for _, kind := range refKinds {
				pe, err := NewPointErrors(src, kind, p)
				if err != nil {
					t.Fatal(err)
				}
				sw, err := NewSweep(src, RestrictedFamily, kind, p, n, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				for b := 1; b <= n; b++ {
					tag := fmt.Sprintf("n=%d/%s/%v/b=%d", n, srcName, kind, b)
					best := math.Inf(1)
					for mask := 0; mask < 1<<n; mask++ {
						if bits.OnesCount(uint(mask)) > b {
							continue
						}
						sub := &Synopsis{N: n}
						for i := 0; i < n; i++ {
							if mask>>i&1 == 1 {
								sub.Indices, sub.Values = append(sub.Indices, i), append(sub.Values, c[i])
							}
						}
						best = min(best, pe.SynopsisError(sub))
					}
					got, err := sw.Cost(b)
					if err != nil {
						t.Fatal(err)
					}
					if !near(got, best) {
						t.Fatalf("%s: sweep cost %v, brute force %v", tag, got, best)
					}
					syn, err := sw.Synopsis(b)
					if err != nil {
						t.Fatal(err)
					}
					if syn.B() > b {
						t.Fatalf("%s: extracted coefficients %v", tag, syn.Indices)
					}
					if direct := pe.SynopsisError(syn); !near(direct, best) || !near(syn.Cost, best) {
						t.Fatalf("%s: extracted synopsis costs %v (reports %v), brute force %v", tag, direct, syn.Cost, best)
					}
				}
			}
		}
	}
}

// TestTreeEntriesCountTables holds treeEntries, the count the entry cap
// checks, to the level tables and incoming values a sweep actually lays
// out, exact and quantized.
func TestTreeEntriesCountTables(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for _, n := range []int{4, 8, 60, 128} {
		vp := ptest.RandomValuePDF(rng, n, 2)
		for _, B := range []int{1, 3, 16, 200} {
			for _, q := range []int{0, 2, 5, 16} {
				d, _ := buildTree(t, vp, metric.SAE, metric.Params{C: 0.5}, B, q, nil)
				got := 0
				for l := range d.res {
					got += len(d.res[l]) + len(d.vals[l])
				}
				quant, err := treeQuant(d.n, B, q)
				if err != nil {
					t.Fatal(err)
				}
				if want := treeEntries(d.n, B, quant); float64(got) != want {
					t.Fatalf("n=%d B=%d q=%d: the tables hold %d entries, treeEntries counts %v", n, B, q, got, want)
				}
			}
		}
	}
}

// TestTreeOverflowHintFits: the grid size an overflow error recommends
// passes treeQuant at the same budget, fits the entry cap, and is the
// largest that does.
func TestTreeOverflowHintFits(t *testing.T) {
	hint := regexp.MustCompile(`q <= (\d+)`)
	for n := 1 << 12; n <= 1<<20; n <<= 1 {
		for _, B := range []int{1, 8, 32, 256} {
			for _, quant := range []int{0, n / 4} {
				_, err := treeQuant(n, B, quant)
				if err == nil {
					continue
				}
				m := hint.FindStringSubmatch(err.Error())
				if m == nil {
					t.Fatalf("n=%d B=%d q=%d: %v names no grid size", n, B, quant, err)
				}
				q, _ := strconv.Atoi(m[1])
				if got, err := treeQuant(n, B, q); err != nil || got != q {
					t.Fatalf("n=%d B=%d q=%d: the hint q=%d gives (%d, %v)", n, B, quant, q, got, err)
				}
				if e := treeEntries(n, B, q); e > maxTreeEntries {
					t.Fatalf("n=%d B=%d: the hint q=%d needs %v entries", n, B, q, e)
				}
				if _, err := treeQuant(n, B, q+1); q+1 < n/2 && err == nil {
					t.Fatalf("n=%d B=%d: q=%d fits too, past the hint q=%d", n, B, q+1, q)
				}
			}
		}
	}
}
