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
		if v := float64(l.A*x) + l.B; v > best {
			best = v
		}
	}
	return best
}

// MinimizeMax returns (x*, f(x*)) minimizing f(x) = max_i (A_i x + B_i)
// over [lo, hi]. It requires lo <= hi and at least one line; otherwise it
// returns (lo, -Inf) for no lines, and swaps a reversed interval. It reads
// lines without modifying them and allocates nothing.
func MinimizeMax(lines []Line, lo, hi float64) (float64, float64) {
	var t Trace
	return t.Solve(lines, lo, hi)
}

// maxRounds is how many rounds a Trace records; a longer run is not
// certified. Runs take one to four on the histogram oracles' lines.
const maxRounds = 6

// Trace is the certificate of one Solve: every comparison whose outcome
// decides the answer, in the order the run made them. Admits uses it to
// tell, without solving, that a line prepended to the solved set leaves
// the answer's bits unchanged.
type Trace struct {
	x, y      float64
	seatA     Line // the starting seats: least and greatest slope
	seatB     Line
	rounds    [maxRounds]round
	nr        int
	certified bool // the run ended on a branch that a longer input retraces
}

// round is what one round of the pair search ended on: the rising line b
// and where it meets a, then the falling line a and where it meets b.
type round struct {
	b  Line
	xb float64
	a  Line
	x  float64
}

// Solve is MinimizeMax, recording its run into t.
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
func (t *Trace) Solve(lines []Line, lo, hi float64) (float64, float64) {
	if lo > hi {
		lo, hi = hi, lo
	}
	t.nr, t.certified = 0, false
	if len(lines) == 0 {
		t.x, t.y = lo, math.Inf(-1)
		return t.x, t.y
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
	// A monotone set is certified by its seats alone; the pair search
	// below certifies only a run that ends on its break.
	t.seatA, t.seatB, t.certified = a, b, true
	switch {
	case a.A >= 0: // entirely non-decreasing
		t.x, t.y = lo, Eval(lines, lo)
		return t.x, t.y
	case b.A <= 0: // entirely non-increasing
		t.x, t.y = hi, Eval(lines, hi)
		return t.x, t.y
	}
	x := intersect(a, b)
	t.certified = false
	for r := 0; r < len(lines); r++ {
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
		if r < maxRounds {
			t.rounds[r] = round{b, xb, a, x}
		}
		if a == prev {
			// One more line may raise the round cap, never lower it, so
			// only a run that ends here is retraced by a longer input.
			t.nr, t.certified = r+1, r < maxRounds
			break
		}
	}
	if x < lo {
		x = lo
	} else if x > hi {
		x = hi
	}
	t.x, t.y = x, Eval(lines, x)
	return t.x, t.y
}

// Answer returns the (x, y) Solve last returned.
func (t *Trace) Answer() (float64, float64) { return t.x, t.y }

// Admits reports whether Solve over p followed by the lines t was solved
// over would return t's answer, bit for bit; when it does, the same holds
// for further lines Admits accepts, each prepended in turn. It holds when
// p loses every comparison of t's run strictly — p comes first, so it wins
// a tie — and lies strictly below the answer there: the run then keeps
// every seat, pair and crossing it had, so it breaks in the same round at
// the same x, and the maximum there keeps its value and the line it came
// from. An uncertified run admits nothing. Admits allocates nothing, and
// it is false whenever p or a comparison involves a NaN.
func (t *Trace) Admits(p Line) bool {
	if !t.certified ||
		!(t.seatA.A < p.A || (t.seatA.A == p.A && t.seatA.B > p.B)) ||
		!(t.seatB.A > p.A || (t.seatB.A == p.A && t.seatB.B > p.B)) {
		return false
	}
	a := t.seatA
	for _, r := range t.rounds[:t.nr] {
		if p.A >= 0 {
			if c := intersect(a, p); !(r.xb < c || (r.xb == c && r.b.A > p.A)) {
				return false
			}
		} else if c := intersect(p, r.b); !(r.x > c || (r.x == c && r.a.A < p.A)) {
			return false
		}
		a = r.a
	}
	return float64(p.A*t.x)+p.B < t.y
}

// intersect returns the x where two non-parallel lines meet.
func intersect(l1, l2 Line) float64 { return (l2.B - l1.B) / (l1.A - l2.A) }
