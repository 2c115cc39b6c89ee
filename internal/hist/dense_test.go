package hist

// The dense reference DP. Its comparisons through the codec are in
// dense_codec_test.go: synopsis imports hist, so they need the external
// test package, which reaches denseTable through the handles below.

import "math"

var DenseTable = denseTable

// denseTable is Eq. (2) as written: every bucket ending at e priced, every
// split candidate of every level scanned, nothing pruned. It is the
// reference the pruned tables must equal bit for bit. It prices bucket by
// bucket through cold Cost calls wherever it can (everything but a
// sweep-only oracle), so that comparing its tables against a default
// build's checks the sweeps too.
func denseTable(o Oracle, Bmax int) *DPTable {
	n := o.N()
	if Bmax > n {
		Bmax = n
	}
	t := &DPTable{oracle: o, n: n, bmax: Bmax, mono: make([]int, Bmax)}
	t.opt = make([][]float64, Bmax)
	t.choice = make([][]int32, Bmax)
	for b := range t.opt {
		t.opt[b] = make([]float64, n)
		t.choice[b] = make([]int32, n)
	}
	isSum := o.Combine() == Sum
	costs := make([]float64, n)
	reps := make([]float64, n)
	for e := 0; e < n; e++ {
		if sweepOnly(o) {
			o.CostsForEnd(e, costs, reps)
		} else {
			for s := 0; s <= e; s++ {
				costs[s], reps[s] = o.Cost(s, e)
			}
		}
		t.stats.CostEvals += int64(e + 1)
		t.setCell(0, e, costs[0], -1)
		for b := 1; b < Bmax && b <= e; b++ {
			best := reduceSplits(t.opt[b-1], costs, b-1, e, isSum)
			if best.arg < 0 {
				best = minPartial{value: math.Inf(1), arg: int32(b - 1)}
			}
			t.setCell(b, e, best.value, best.arg)
			t.stats.CandidatesScanned += int64(e - b + 1)
		}
	}
	return t
}
