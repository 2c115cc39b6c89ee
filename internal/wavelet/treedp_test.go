package wavelet

// References for the two things the tree DP says once: the incoming
// values its top-down pass lays out, and the root scan with and without
// the drop decision.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"probsyn/internal/haar"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

// pathSum is the incoming value of local state s of node j, derived from
// nothing but the state encoding: s's digits, least significant first, are
// the decisions of j's parent, grandparent, ... node 1 and finally c0
// (radix: that coefficient's branch count); the value is the retained
// ancestors' candidates summed top-down, added where the path to j
// descends left and subtracted where it descends right.
func pathSum(d *treeDP, j, s int) float64 {
	depth := bits.Len(uint(j)) - 1
	dec := make([]int, depth+1) // dec[0]: c0; dec[k]: j's ancestor at level k-1
	for k := depth; k >= 1; k-- {
		br := d.br(j >> (depth - k + 1))
		dec[k], s = s%br, s/br
	}
	dec[0] = s
	var v float64
	if dec[0] > 0 {
		v = d.cands[0][dec[0]-1]
	}
	for k := 1; k <= depth; k++ {
		a := j >> (depth - k + 1)
		if dec[k] == 0 {
			continue
		}
		if w := d.cands[a][dec[k]-1]; j>>(depth-k)&1 == 0 {
			v += w
		} else {
			v -= w
		}
	}
	return v
}

// TestIncomingValuesMatchPathSums holds every retained incoming value to
// pathSum by Float64bits (exact levels) or to the node's grid blo + k·step
// (quantized levels), and an exact DP to keeping the one level it reads.
func TestIncomingValuesMatchPathSums(t *testing.T) {
	p := metric.Params{C: 0.5}
	rng := rand.New(rand.NewSource(25))
	for _, mode := range []refMode{
		{"restricted", RestrictedFamily, 0},
		{"unrestricted-q1", UnrestrictedFamily, 1},
		{"unrestricted-q2", UnrestrictedFamily, 2},
		{"q4", RestrictedFamily, 4},
		{"q16", RestrictedFamily, 16},
	} {
		for _, n := range []int{4, 7, 8, 16, 32, 64} {
			tag := fmt.Sprintf("%s/n=%d", mode.name, n)
			d, _ := buildTree(t, ptest.RandomFractionalValuePDF(rng, n, 4), mode.family, metric.SAE, p, 3, mode.q, nil)
			for l, vals := range d.vals {
				if d.quant == 0 && l < d.levels-2 {
					if vals != nil {
						t.Fatalf("%s: an exact DP kept level %d's incoming values", tag, l)
					}
					continue
				}
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

// TestRootScanMatchesBruteForce: at every budget the sweep's cost is the
// minimum expected error over every coefficient subset within the budget —
// over those that contain the root when forced — and the extracted
// synopsis attains it. n = 2 takes rootBest's leafTables arm, n > 2 its
// level-0 table arm; the sparse source is one whose optimum drops the
// root, so the forced column is not the unforced one again.
func TestRootScanMatchesBruteForce(t *testing.T) {
	p := metric.Params{C: 0.5}
	rng := rand.New(rand.NewSource(52))
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	forcedCostsMore := false
	for _, n := range []int{2, 4, 8} {
		sparse := &pdata.ValuePDF{N: n, Items: make([]pdata.ItemPDF, n)}
		for i := range sparse.Items {
			sparse.Items[i].Entries = []pdata.FreqProb{{Freq: 4 + 4*rng.Float64(), Prob: 0.1 + 0.2*rng.Float64()}}
		}
		for srcName, src := range map[string]*pdata.ValuePDF{"random": ptest.RandomValuePDF(rng, n, 3), "sparse": sparse} {
			c := haar.Forward(src.ExpectedFreqs())
			for _, kind := range refKinds {
				var unforced []float64
				for _, forced := range []bool{false, true} {
					sw, pe, err := sweepDP(src, RestrictedFamily, kind, p, n, 0, forced, nil)
					if err != nil {
						t.Fatal(err)
					}
					for b := 1; b <= n; b++ {
						tag := fmt.Sprintf("n=%d/%s/%v/forced=%v/b=%d", n, srcName, kind, forced, b)
						best := math.Inf(1)
						for mask := 0; mask < 1<<n; mask++ {
							if bits.OnesCount(uint(mask)) > b || (forced && mask&1 == 0) {
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
						if got := sw.Cost(b); !near(got, best) {
							t.Fatalf("%s: sweep cost %v, brute force %v", tag, got, best)
						}
						syn, err := sw.Synopsis(b)
						if err != nil {
							t.Fatal(err)
						}
						if syn.B() > b || (forced && (syn.B() == 0 || syn.Indices[0] != 0)) {
							t.Fatalf("%s: extracted coefficients %v", tag, syn.Indices)
						}
						if direct := pe.SynopsisError(syn); !near(direct, best) || !near(syn.Cost, best) {
							t.Fatalf("%s: extracted synopsis costs %v (reports %v), brute force %v", tag, direct, syn.Cost, best)
						}
						if !forced {
							unforced = append(unforced, best)
						} else if best > unforced[b-1]*(1+1e-6) {
							forcedCostsMore = true
						}
					}
				}
			}
		}
	}
	if !forcedCostsMore {
		t.Fatal("no case where retaining the root costs more than the optimum: the forced rows tested nothing the unforced ones did not")
	}
}
