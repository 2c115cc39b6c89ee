// Package haar implements the one-dimensional Haar Discrete Wavelet
// Transform and the error-tree structure used by wavelet synopses (§2.2,
// Fig. 1 of the paper).
//
// Conventions. Input length n must be a power of two (Pad helps otherwise).
// The coefficient array c has the classic layout:
//
//	c[0]          overall average
//	c[1]          coarsest detail (support = whole domain)
//	c[i], i >= 1  detail at level l = floor(log2 i), support size n/2^l,
//	              support = [(i-2^l) * n/2^l, (i-2^l+1) * n/2^l)
//
// A detail contributes +c[i] to leaves in the left half of its support and
// -c[i] to the right half. The orthonormal (Parseval) scaling multiplies
// c[i] by sqrt(supportSize(i)) — equivalently the paper's "normalize level
// l by sqrt(2^l)" up to its level numbering — so that the sum of squares of
// normalized coefficients equals the sum of squares of the data.
package haar

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Pow2Ceil returns the smallest power of two >= n (n must be positive).
func Pow2Ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Pad returns data extended with zeros to the next power-of-two length.
// If the length is already a power of two the input is returned unchanged.
func Pad(data []float64) []float64 {
	n := Pow2Ceil(len(data))
	if n == len(data) {
		return data
	}
	out := make([]float64, n)
	copy(out, data)
	return out
}

func checkPow2(n int) {
	if !IsPow2(n) {
		panic(fmt.Sprintf("haar: length %d is not a power of two", n))
	}
}

// Forward computes the unnormalized Haar DWT of data.
func Forward(data []float64) []float64 {
	c := make([]float64, len(data))
	ForwardInto(c, append([]float64(nil), data...))
	return c
}

// ForwardInto writes the unnormalized Haar DWT of work into c, which must
// have work's length, and leaves work overwritten: each level's averages
// are written over the pairs they are taken from.
func ForwardInto(c, work []float64) {
	n := len(work)
	checkPow2(n)
	c = c[:n]
	for length := n; length > 1; length /= 2 {
		half := length / 2
		for k := 0; k < half; k++ {
			a, b := work[2*k], work[2*k+1]
			work[k] = (a + b) / 2 // 2k >= k: no pair still to be read is overwritten
			c[half+k] = (a - b) / 2
		}
	}
	c[0] = work[0]
}

// Inverse reconstructs the data from unnormalized coefficients.
func Inverse(c []float64) []float64 {
	n := len(c)
	checkPow2(n)
	out := make([]float64, n)
	out[0] = c[0]
	for length := 1; length < n; length *= 2 {
		// In place, last pair first: pair k lands on 2k and 2k+1, past
		// every average still to be read.
		for k := length - 1; k >= 0; k-- {
			avg := out[k]
			out[2*k] = avg + c[length+k]
			out[2*k+1] = avg - c[length+k]
		}
	}
	return out
}

// Level returns the resolution level of coefficient i: 0 for both the
// average c[0] and the coarsest detail c[1] context (log2 of its index) —
// concretely, floor(log2 i) for i >= 1, and 0 for i == 0.
func Level(i int) int {
	if i <= 0 {
		return 0
	}
	return bits.Len(uint(i)) - 1
}

// SupportSize returns the number of leaves coefficient i influences,
// within a domain of n leaves.
func SupportSize(i, n int) int {
	if i == 0 {
		return n
	}
	return n >> Level(i)
}

// Support returns the inclusive leaf range [lo, hi] that coefficient i
// influences.
func Support(i, n int) (lo, hi int) {
	if i == 0 {
		return 0, n - 1
	}
	size := SupportSize(i, n)
	l := Level(i)
	lo = (i - (1 << l)) * size
	return lo, lo + size - 1
}

// Sign returns the sign (+1/-1) with which coefficient i contributes to
// leaf k, or 0 if k is outside i's support. The average c[0] contributes +1
// everywhere.
func Sign(i, k, n int) float64 {
	lo, hi := Support(i, n)
	if k < lo || k > hi {
		return 0
	}
	if i == 0 {
		return 1
	}
	if k < lo+SupportSize(i, n)/2 {
		return 1
	}
	return -1
}

// NormFactor returns the orthonormal scaling of coefficient i:
// sqrt(SupportSize(i, n)).
func NormFactor(i, n int) float64 { return math.Sqrt(float64(SupportSize(i, n))) }

// Normalize returns the orthonormal version of unnormalized coefficients.
func Normalize(c []float64) []float64 {
	n := len(c)
	checkPow2(n)
	out := make([]float64, n)
	for i := range c {
		out[i] = c[i] * NormFactor(i, n)
	}
	return out
}

// Path returns the coefficient indices whose supports contain leaf k
// (the root average, then details from coarsest to finest). Its length is
// log2(n)+1.
func Path(k, n int) []int {
	checkPow2(n)
	out := make([]int, 0, bits.Len(uint(n)))
	out = append(out, 0)
	i := 1
	for i < n {
		out = append(out, i)
		size := SupportSize(i, n)
		lo, _ := Support(i, n)
		if k < lo+size/2 {
			i = 2 * i
		} else {
			i = 2*i + 1
		}
	}
	return out
}

// TopK returns the indices of the k coefficients with the largest absolute
// normalized value, in decreasing order of |normalized value| (ties broken
// by index for determinism). The input c is unnormalized. Each key
// |c[i]|·NormFactor(i, n) is computed once, before the sort.
func TopK(c []float64, k int) []int {
	var r Ranking
	return r.AppendTopK(make([]int, 0, max(0, min(k, len(c)))), c, k)
}

// Ranking is TopK's sort memory, one (key, index) pair a coefficient,
// kept for the next ranking to reuse.
type Ranking struct{ r []ranked }

type ranked struct {
	key float64
	i   int
}

// AppendTopK appends TopK(c, k) to dst, ranking in r's memory.
func (r *Ranking) AppendTopK(dst []int, c []float64, k int) []int {
	n := len(c)
	checkPow2(n)
	r.r = slices.Grow(r.r[:0], n)[:n]
	for i, v := range c {
		r.r[i] = ranked{math.Abs(v) * NormFactor(i, n), i}
	}
	slices.SortFunc(r.r, func(a, b ranked) int {
		switch {
		case a.key > b.key:
			return -1
		case a.key < b.key:
			return 1
		}
		return a.i - b.i
	})
	dst = slices.Grow(dst, max(0, min(k, n)))
	for _, x := range r.r[:max(0, min(k, n))] {
		dst = append(dst, x.i)
	}
	return dst
}

// Children returns the child coefficient indices of internal node i in the
// error tree, and leaf=false; or, for the last internal level (i >= n/2),
// the two leaf indices with leaf=true. Node 0's only child is node 1: by
// convention Children(0) returns (1, 1, false) and callers treat the root
// specially.
func Children(i, n int) (left, right int, leaf bool) {
	if i == 0 {
		return 1, 1, false
	}
	if 2*i >= n {
		return 2*i - n, 2*i + 1 - n, true
	}
	return 2 * i, 2*i + 1, false
}
