// Package minimax solves the one-dimensional problem
//
//	minimize over x in [lo, hi] of  max_i (A_i x + B_i),
//
// the inner optimization of the MAE/MARE histogram oracles (§3.6): inside a
// bracket between consecutive frequency values, each item's expected
// absolute error is linear in the representative b̂, and the bucket cost is
// the upper envelope of those lines.
//
// The envelope is convex piecewise linear and its minimizer is the
// breakpoint where its slope changes sign: the crossing of the one falling
// and the one rising line that are both on the envelope there. Only that
// pair is needed, not the whole envelope, so the solver looks for it
// directly — no sorting, no hull, no memory of its own.
package minimax

import "math"

// Line is y = A*x + B.
type Line struct {
	A, B float64
}

// Eval returns max_i lines[i] at x, or -Inf for an empty set.
func Eval(lines []Line, x float64) float64 {
	best := math.Inf(-1)
	for _, l := range lines {
		if v := l.A*x + l.B; v > best {
			best = v
		}
	}
	return best
}

// MinimizeMax returns (x*, f(x*)) minimizing f(x) = max_i (A_i x + B_i)
// over [lo, hi]. It requires lo <= hi and at least one line; otherwise it
// returns (lo, -Inf) for no lines, and swaps a reversed interval. It reads
// lines without modifying them and allocates nothing.
//
// With falling (A < 0) and rising (A >= 0) lines both present, the
// minimizer is where the upper envelope of the falling lines meets that of
// the rising ones. A falling line a meets the rising envelope at its
// leftmost crossing with any rising line, b; b meets the falling envelope
// at its rightmost crossing with any falling line, a'. When a' = a the
// pair is on both envelopes at their common point, which is therefore the
// minimizer; otherwise the crossing of (a', b) is no lower than that of
// (a, b) and the next step raises it, so alternating the two steps ends
// within one round per line (typically two, each two passes). Lines through
// a common crossing resolve to the steepest on either side.
func MinimizeMax(lines []Line, lo, hi float64) (float64, float64) {
	if lo > hi {
		lo, hi = hi, lo
	}
	if len(lines) == 0 {
		return lo, math.Inf(-1)
	}
	// a, b: the lines of least and greatest slope (largest intercept among
	// parallels). Both are on the envelope, at its two ends.
	a, b := lines[0], lines[0]
	for _, l := range lines[1:] {
		if l.A < a.A || (l.A == a.A && l.B > a.B) {
			a = l
		}
		if l.A > b.A || (l.A == b.A && l.B > b.B) {
			b = l
		}
	}
	switch {
	case a.A >= 0: // entirely non-decreasing
		return lo, Eval(lines, lo)
	case b.A <= 0: // entirely non-increasing
		return hi, Eval(lines, hi)
	}
	x := intersect(a, b)
	for round := 0; round < len(lines); round++ {
		xb := math.Inf(1)
		for _, l := range lines {
			if l.A >= 0 {
				if c := intersect(a, l); c < xb || (c == xb && l.A > b.A) {
					b, xb = l, c
				}
			}
		}
		prev := a
		x = math.Inf(-1)
		for _, l := range lines {
			if l.A < 0 {
				if c := intersect(l, b); c > x || (c == x && l.A < a.A) {
					a, x = l, c
				}
			}
		}
		if a == prev {
			break
		}
	}
	if x < lo {
		x = lo
	} else if x > hi {
		x = hi
	}
	return x, Eval(lines, x)
}

// intersect returns the x where two non-parallel lines meet.
func intersect(l1, l2 Line) float64 { return (l2.B - l1.B) / (l1.A - l2.A) }
