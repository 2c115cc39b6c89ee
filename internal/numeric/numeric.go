// Package numeric provides small, numerically careful building blocks used
// throughout the library: compensated (Kahan–Neumaier) summation, prefix-sum
// tables built with compensated accumulation, and search helpers over
// sorted and discrete convex sequences.
//
// The histogram oracles difference large prefix sums to obtain per-bucket
// quantities; compensated accumulation keeps the absolute error of each
// prefix entry near one ulp of the running sum, which in turn keeps bucket
// costs stable even for n ~ 10^5 items with widely varying magnitudes.
package numeric

import (
	"math"
	"slices"
)

// Sum returns the Kahan–Neumaier compensated sum of xs.
func Sum(xs []float64) float64 {
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	return a.Value()
}

// Accumulator is a running Kahan–Neumaier compensated sum.
// The zero value is an empty sum.
type Accumulator struct {
	sum  float64
	comp float64 // running compensation for lost low-order bits
}

// Add adds x to the accumulator.
func (a *Accumulator) Add(x float64) {
	t := a.sum + x
	if math.Abs(a.sum) >= math.Abs(x) {
		a.comp += (a.sum - t) + x
	} else {
		a.comp += (x - t) + a.sum
	}
	a.sum = t
}

// Value returns the current compensated sum.
func (a *Accumulator) Value() float64 { return a.sum + a.comp }

// Reset clears the accumulator to the empty sum.
func (a *Accumulator) Reset() { a.sum, a.comp = 0, 0 }

// PrefixSums returns p with len(xs)+1 entries such that
// p[k] = xs[0] + ... + xs[k-1], each computed with compensated accumulation.
// p[0] == 0. Range sums are p[e+1]-p[s] for the inclusive range [s,e].
func PrefixSums(xs []float64) []float64 {
	p := make([]float64, len(xs)+1)
	var a Accumulator
	for i, x := range xs {
		a.Add(x)
		p[i+1] = a.Value()
	}
	return p
}

// Prefix is a prefix-sum table over an n-item array supporting O(1)
// inclusive range sums.
type Prefix struct{ p []float64 }

// NewPrefix builds a prefix table over xs.
func NewPrefix(xs []float64) Prefix { return Prefix{p: PrefixSums(xs)} }

// Range returns xs[s] + ... + xs[e] (inclusive). Range(s, s-1) == 0.
func (pp Prefix) Range(s, e int) float64 {
	if e < s {
		return 0
	}
	return pp.p[e+1] - pp.p[s]
}

// Len returns the number of underlying items.
func (pp Prefix) Len() int { return len(pp.p) - 1 }

// Push appends item x, continuing a, the accumulator that summed the
// items before it: len(xs) Pushes onto an empty table with a zero
// accumulator write NewPrefix(xs) bit for bit, so a table truncated to its
// first k items (Truncate) resumes exactly from the accumulator's state
// after those k.
func (pp *Prefix) Push(a *Accumulator, x float64) {
	if len(pp.p) == 0 {
		pp.p = append(pp.p, 0)
	}
	a.Add(x)
	pp.p = append(pp.p, a.Value())
}

// Reserve makes room for a table of n items, so that Pushes up to n
// allocate nothing.
func (pp *Prefix) Reserve(n int) {
	if more := n + 1 - len(pp.p); more > 0 {
		pp.p = slices.Grow(pp.p, more)
	}
}

// Truncate keeps the entries of the first n items (n <= Len()).
func (pp *Prefix) Truncate(n int) {
	if pp.p != nil {
		pp.p = pp.p[:n+1]
	}
}

// MinConvexGrid minimizes f over the integer grid [lo, hi] (inclusive),
// assuming the difference sequence f(k+1)-f(k) is non-decreasing in k
// (discrete convexity). It returns the minimizing index and value using
// O(log(hi-lo)) evaluations via binary search on the sign of the forward
// difference. Ties resolve to the smallest index, which a plateau-afflicted
// ternary search would not guarantee. The SAE/SARE and MAE/MARE histogram
// oracles run this search inlined over their tables (no closure per
// probe); this form defines the index they must land on, and their tests
// hold them to it.
func MinConvexGrid(lo, hi int, f func(int) float64) (int, float64) {
	if lo >= hi {
		return lo, f(lo)
	}
	// Invariant: the first k with f(k+1)-f(k) >= 0 is in [lo, hi];
	// that k is a global minimizer.
	l, r := lo, hi
	for l < r {
		mid := l + (r-l)/2
		if f(mid+1)-f(mid) >= 0 {
			r = mid
		} else {
			l = mid + 1
		}
	}
	return l, f(l)
}

// SearchFloats returns the smallest index i in [0, len(v)) with v[i] >= x,
// or len(v) if none; v must be sorted ascending. Equivalent to
// sort.SearchFloat64s but kept here so hot paths avoid the closure-based
// sort.Search.
func SearchFloats(v []float64, x float64) int {
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
