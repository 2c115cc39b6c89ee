// Package hist builds optimal and near-optimal B-bucket histogram synopses
// over probabilistic data (§3 of Cormode & Garofalakis). Bucket-cost
// oracles — one per error objective — reduce each metric to O(1) or
// O(polylog) bucket-cost evaluations over precomputed arrays; a shared
// dynamic program (Eq. 2) then finds the optimal bucketing, and a
// Guha–Koudas–Shim-style approximation (§3.5) trades a (1+eps) factor for
// a much smaller search.
package hist

import (
	"fmt"
	"math"
	"sort"
)

// Bucket is one histogram bucket: the inclusive item range [Start, End],
// the representative value every enclosed frequency is approximated by,
// and the bucket's expected error contribution under the oracle's metric.
type Bucket struct {
	Start, End int
	Rep        float64
	Cost       float64
}

// Width returns the number of items the bucket spans.
func (b Bucket) Width() int { return b.End - b.Start + 1 }

// Histogram is a B-bucket partition of the domain [0, N).
type Histogram struct {
	N       int
	Buckets []Bucket
	// Cost is the histogram's total expected error: the sum of bucket
	// costs for cumulative metrics, their maximum for max-error metrics.
	Cost float64
}

// B returns the number of buckets.
func (h *Histogram) B() int { return len(h.Buckets) }

// Terms returns the synopsis size in terms (buckets), implementing the
// shared synopsis interface (internal/synopsis).
func (h *Histogram) Terms() int { return len(h.Buckets) }

// ErrorCost returns the histogram's expected error under the metric it was
// built for, implementing the shared synopsis interface.
func (h *Histogram) ErrorCost() float64 { return h.Cost }

// Domain returns the item-domain size the histogram summarizes.
func (h *Histogram) Domain() int { return h.N }

// Estimate returns the histogram's approximation ĝ_i of item i's frequency.
// Out-of-domain items are clamped explicitly to the nearest edge (i < 0
// answers bucket 0's representative, i >= N the last bucket's): the
// histogram has no information outside [0, N), so the edge bucket is the
// least-wrong constant answer. Callers that must not fabricate an answer
// for out-of-domain items — the serving layer's reject-out-of-domain
// contract — validate i against Domain() before calling.
func (h *Histogram) Estimate(i int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= h.N {
		i = h.N - 1
	}
	k := sort.Search(len(h.Buckets), func(k int) bool { return h.Buckets[k].End >= i })
	if k == len(h.Buckets) {
		k = len(h.Buckets) - 1 // unreachable on a Validate()-clean histogram
	}
	return h.Buckets[k].Rep
}

// RangeSum estimates the expected total frequency over the inclusive item
// range [lo, hi] (each item approximated by its bucket representative) —
// the quantity probabilistic range-count queries need. Out-of-domain ends
// clamp; an empty range sums to zero.
//
// The sum is computed as the prefix difference P(hi) - P(lo-1), where
// P(i) accumulates whole buckets left to right and finishes with the
// partial bucket containing i. The compiled querier (internal/query)
// evaluates exactly this decomposition from a precomputed prefix array,
// so compiled and uncompiled answers are bit-identical by construction —
// keep the two in lockstep.
func (h *Histogram) RangeSum(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi >= h.N {
		hi = h.N - 1
	}
	if hi < lo {
		return 0
	}
	if lo == 0 {
		return h.prefixTo(hi)
	}
	return h.prefixTo(hi) - h.prefixTo(lo-1)
}

// prefixTo returns P(i): the estimated total frequency over [0, i],
// accumulating full buckets left to right and ending with the partial
// bucket containing i. The accumulation order is the contract shared with
// the compiled querier's prefix array (see RangeSum). Each product is
// rounded on its own, so no architecture fuses it into the sum after it.
func (h *Histogram) prefixTo(i int) float64 {
	total := 0.0
	for _, b := range h.Buckets {
		if i > b.End {
			total += float64(float64(b.Width()) * b.Rep)
			continue
		}
		total += float64(float64(i-b.Start+1) * b.Rep)
		break
	}
	return total
}

// Validate checks that the buckets are a contiguous partition of [0, N)
// and that every number is finite: a NaN or infinite representative or
// cost has no JSON form, so a histogram carrying one could be neither
// listed nor answered from.
func (h *Histogram) Validate() error {
	if h.N <= 0 {
		return fmt.Errorf("hist: histogram over empty domain")
	}
	if len(h.Buckets) == 0 {
		return fmt.Errorf("hist: histogram with no buckets")
	}
	if h.Buckets[0].Start != 0 {
		return fmt.Errorf("hist: first bucket starts at %d, want 0", h.Buckets[0].Start)
	}
	for k := 0; k < len(h.Buckets); k++ {
		b := h.Buckets[k]
		if b.Start > b.End {
			return fmt.Errorf("hist: bucket %d has start %d > end %d", k, b.Start, b.End)
		}
		if k > 0 && b.Start != h.Buckets[k-1].End+1 {
			return fmt.Errorf("hist: bucket %d starts at %d, want %d", k, b.Start, h.Buckets[k-1].End+1)
		}
		if !finite(b.Rep) || !finite(b.Cost) {
			return fmt.Errorf("hist: bucket %d has representative %v and cost %v, want finite numbers", k, b.Rep, b.Cost)
		}
	}
	if !finite(h.Cost) {
		return fmt.Errorf("hist: histogram cost %v, want a finite number", h.Cost)
	}
	if last := h.Buckets[len(h.Buckets)-1].End; last != h.N-1 {
		return fmt.Errorf("hist: last bucket ends at %d, want %d", last, h.N-1)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Boundaries returns the bucket start positions (a convenient compact
// encoding: boundaries[0] == 0 always).
func (h *Histogram) Boundaries() []int {
	out := make([]int, len(h.Buckets))
	for k, b := range h.Buckets {
		out[k] = b.Start
	}
	return out
}

// FromBoundaries assembles a histogram with the given bucket start
// positions (ascending, starting at 0) over [0, n), using the oracle to
// fill each bucket's optimal representative and cost. A sweep-only oracle
// is priced the way its DP priced it, a column per bucket in end order.
func FromBoundaries(o Oracle, starts []int) (*Histogram, error) {
	n := o.N()
	if len(starts) == 0 || starts[0] != 0 {
		return nil, fmt.Errorf("hist: boundaries must begin with 0")
	}
	price := o.Cost
	if so, ok := o.(SweepOracle); ok && sweepOnly(o) {
		costs, reps := make([]float64, n), make([]float64, n)
		price = func(s, e int) (float64, float64) {
			so.CostsForEnd(e, costs, reps)
			return costs[s], reps[s]
		}
	}
	h := &Histogram{N: n, Buckets: make([]Bucket, 0, len(starts))}
	for k := range starts {
		end := n - 1
		if k+1 < len(starts) {
			end = starts[k+1] - 1
		}
		if starts[k] > end {
			return nil, fmt.Errorf("hist: boundary %d produces empty bucket", starts[k])
		}
		cost, rep := price(starts[k], end)
		h.Buckets = append(h.Buckets, Bucket{Start: starts[k], End: end, Rep: rep, Cost: cost})
	}
	h.Cost = combineAll(o.Combine(), h.Buckets)
	return h, h.Validate()
}

func combineAll(c Combine, buckets []Bucket) float64 {
	total := 0.0
	for i, b := range buckets {
		if c == Sum {
			total += b.Cost
		} else if i == 0 || b.Cost > total {
			total = b.Cost
		}
	}
	return total
}
