// Package wavelet builds B-term Haar wavelet synopses over probabilistic
// data (§4 of Cormode & Garofalakis): the SSE-optimal synopsis of Theorem 7
// (retain the B largest expected normalized coefficients) and the
// restricted dynamic program of Theorem 8 for non-SSE error metrics.
package wavelet

import (
	"fmt"
	"math"
	"sort"

	"probsyn/internal/haar"
)

// Synopsis is a sparse set of retained (unnormalized) Haar coefficients
// over a power-of-two domain of size N. Coefficients not listed are zero.
type Synopsis struct {
	N       int
	Indices []int     // sorted ascending
	Values  []float64 // unnormalized coefficient values, parallel to Indices
	// Cost is the synopsis's expected error under the objective it was
	// built for (expected SSE for BuildSSE, the restricted DP's metric
	// otherwise). Zero for hand-assembled synopses.
	Cost float64
}

// B returns the number of retained coefficients.
func (s *Synopsis) B() int { return len(s.Indices) }

// Terms returns the synopsis size in terms (retained coefficients),
// implementing the shared synopsis interface (internal/synopsis).
func (s *Synopsis) Terms() int { return len(s.Indices) }

// ErrorCost returns the expected error recorded at build time,
// implementing the shared synopsis interface.
func (s *Synopsis) ErrorCost() float64 { return s.Cost }

// Domain returns the (padded, power-of-two) item-domain size.
func (s *Synopsis) Domain() int { return s.N }

// Validate checks shape invariants, and that every number is finite: a
// NaN or infinite coefficient or cost has no JSON form, so a synopsis
// carrying one could be neither listed nor answered from.
func (s *Synopsis) Validate() error {
	if !haar.IsPow2(s.N) {
		return fmt.Errorf("wavelet: domain %d not a power of two", s.N)
	}
	if len(s.Indices) != len(s.Values) {
		return fmt.Errorf("wavelet: %d indices vs %d values", len(s.Indices), len(s.Values))
	}
	for k, idx := range s.Indices {
		if idx < 0 || idx >= s.N {
			return fmt.Errorf("wavelet: coefficient index %d outside [0,%d)", idx, s.N)
		}
		if k > 0 && idx <= s.Indices[k-1] {
			return fmt.Errorf("wavelet: indices not strictly ascending at %d", k)
		}
		if v := s.Values[k]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("wavelet: coefficient %d is %v, want a finite number", idx, v)
		}
	}
	if math.IsNaN(s.Cost) || math.IsInf(s.Cost, 0) {
		return fmt.Errorf("wavelet: synopsis cost %v, want a finite number", s.Cost)
	}
	return nil
}

// Dense returns the full coefficient array with zeros for dropped entries.
func (s *Synopsis) Dense() []float64 {
	c := make([]float64, s.N)
	for k, idx := range s.Indices {
		c[idx] = s.Values[k]
	}
	return c
}

// Reconstruct returns the synopsis's approximation of the full data array.
func (s *Synopsis) Reconstruct() []float64 { return haar.Inverse(s.Dense()) }

// Estimate returns the approximation of item i's frequency in O(log N),
// summing only retained ancestors of leaf i.
func (s *Synopsis) Estimate(i int) float64 {
	v := 0.0
	for _, idx := range haar.Path(i, s.N) {
		k := sort.SearchInts(s.Indices, idx)
		if k < len(s.Indices) && s.Indices[k] == idx {
			v += float64(haar.Sign(idx, i, s.N) * s.Values[k])
		}
	}
	return v
}

// RangeSum estimates the total frequency over the inclusive item range
// [lo, hi] from the synopsis. Each term is rounded on its own before it
// is added, as the compiled querier (internal/query) rounds it.
func (s *Synopsis) RangeSum(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi >= s.N {
		hi = s.N - 1
	}
	total := 0.0
	// Each retained coefficient contributes (overlap with + half) -
	// (overlap with - half), scaled by its value; the average contributes
	// its value times the range width.
	for k, idx := range s.Indices {
		val := s.Values[k]
		cLo, cHi := haar.Support(idx, s.N)
		a, b := max(lo, cLo), min(hi, cHi)
		if a > b {
			continue
		}
		if idx == 0 {
			total += float64(val * float64(b-a+1))
			continue
		}
		mid := cLo + haar.SupportSize(idx, s.N)/2 // first leaf of the - half
		plus := overlap(a, b, cLo, mid-1)
		minus := overlap(a, b, mid, cHi)
		total += float64(val * float64(plus-minus))
	}
	return total
}

func overlap(a, b, lo, hi int) int {
	s, e := max(a, lo), min(b, hi)
	if s > e {
		return 0
	}
	return e - s + 1
}

// fromDense builds a sparse synopsis from a dense coefficient array,
// keeping the listed indices.
func fromDense(c []float64, keep []int) *Synopsis {
	idx := append([]int(nil), keep...)
	sort.Ints(idx)
	s := &Synopsis{N: len(c), Indices: idx, Values: make([]float64, len(idx))}
	for k, i := range idx {
		s.Values[k] = c[i]
	}
	return s
}
