package hist

import (
	"fmt"
	"math"

	"probsyn/internal/engine"
)

// ApproximatePool computes a (1+eps)-approximate B-bucket histogram for
// cumulative metrics, in the style of Guha, Koudas & Shim (§3.5,
// Theorem 5). Instead of minimizing over every split point i at every DP
// cell, each DP level is compressed to breakpoints where the level's error
// curve grows by a (1+delta) factor, delta = eps/(2B); within a value
// class only the right-most split point is kept (bucket costs are monotone
// under extension, so later split points dominate earlier equal-error
// ones). Each level then costs O(n·q) oracle calls with q the number of
// breakpoints — O((B/eps)·log(errRange)) — instead of O(n²).
//
// The returned histogram's cost is at most (1+delta)^B ≤ e^(eps/2) ≤
// (1+eps) times optimal for eps ≤ 1.
//
// Each DP level's end-point loop is dispatched through the engine pool
// (nil means serial). Levels are strictly synchronized — level b reads
// only the completed level b-1 and its breakpoint compression — and every
// cell is computed by the same sequence of floating-point operations as
// the serial run, so the result is bit-identical to a single-worker run.
// Oracle.Cost must be safe for concurrent calls.
func ApproximatePool(o Oracle, B int, eps float64, pool *engine.Pool) (*Histogram, error) {
	if o.Combine() != Sum {
		return nil, fmt.Errorf("hist: Approximate requires a cumulative metric")
	}
	n := o.N()
	if n <= 0 {
		return nil, fmt.Errorf("hist: empty domain")
	}
	if B <= 0 {
		return nil, fmt.Errorf("hist: bucket budget %d, want >= 1", B)
	}
	if eps <= 0 {
		return nil, fmt.Errorf("hist: eps %v, want > 0", eps)
	}
	if B > n {
		B = n
	}
	if pool == nil {
		pool = engine.Serial()
	}
	delta := eps / (2 * float64(B))

	apx := make([][]float64, B)
	choice := make([][]int32, B)
	for b := range apx {
		apx[b] = make([]float64, n)
		choice[b] = make([]int32, n)
	}
	levelEnds := func(b int, bps []int, lo, hi int) {
		for j := lo; j < hi; j++ {
			if j < b {
				// not enough items for b+1 buckets; keep a consistent value
				apx[b][j] = apx[b-1][j]
				if j > 0 {
					choice[b][j] = int32(j - 1)
				} else {
					choice[b][j] = -1
				}
				continue
			}
			best := math.Inf(1)
			bestI := int32(b - 1)
			for _, i := range bps {
				if i >= j {
					break
				}
				c, _ := o.Cost(i+1, j)
				if v := apx[b-1][i] + c; v < best {
					best, bestI = v, int32(i)
				}
			}
			// Always consider the immediately preceding split, which keeps
			// the recurrence well-defined even if compression dropped it.
			if i := j - 1; i >= b-1 {
				c, _ := o.Cost(j, j)
				if v := apx[b-1][i] + c; v < best {
					best, bestI = v, int32(i)
				}
			}
			apx[b][j] = best
			choice[b][j] = bestI
		}
	}
	for j := 0; j < n; j++ {
		apx[0][j], _ = o.Cost(0, j)
		choice[0][j] = -1
	}
	for b := 1; b < B; b++ {
		bps := compressBreakpoints(apx[b-1], b-1, delta)
		pool.MapChunks(0, n, n, func(_, lo, hi int) { levelEnds(b, bps, lo, hi) })
	}

	starts := make([]int, 0, B)
	b, j := B-1, n-1
	for b >= 0 {
		i := int(choice[b][j])
		starts = append(starts, i+1)
		j, b = i, b-1
	}
	for l, r := 0, len(starts)-1; l < r; l, r = l+1, r-1 {
		starts[l], starts[r] = starts[r], starts[l]
	}
	// Walking back can revisit split 0 when prefixes are shorter than the
	// level index; dedupe defensively.
	starts = dedupeAscending(starts)
	return FromBoundaries(o, starts)
}

// compressBreakpoints returns split positions i >= minIdx keeping, within
// each run of values in the same (1+delta) class, only the last position.
func compressBreakpoints(vals []float64, minIdx int, delta float64) []int {
	var bps []int
	anchor := math.Inf(-1)
	for j := minIdx; j < len(vals); j++ {
		v := vals[j]
		newClass := false
		switch {
		case math.IsInf(anchor, -1):
			newClass = true
		case anchor == 0:
			newClass = v > 0
		default:
			newClass = v > anchor*(1+delta)
		}
		if newClass {
			bps = append(bps, j)
			anchor = v
		} else {
			bps[len(bps)-1] = j
		}
	}
	return bps
}

func dedupeAscending(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x > out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
