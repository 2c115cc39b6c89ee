package ptest

import (
	"math"
	"sort"

	"probsyn/internal/minimax"
)

// SortedHullMinimizeMax is the solver minimax.MinimizeMax replaced, kept
// as the reference it must reproduce bit for bit: build the whole upper
// envelope with the slope-sorted hull construction, O(k log k) and two
// allocations, and read the minimizer off the breakpoint where the
// envelope slope changes sign.
func SortedHullMinimizeMax(lines []minimax.Line, lo, hi float64) (float64, float64) {
	if lo > hi {
		lo, hi = hi, lo
	}
	if len(lines) == 0 {
		return lo, math.Inf(-1)
	}
	env := sortedHull(lines)
	switch {
	case env[0].A >= 0: // entirely non-decreasing
		return lo, minimax.Eval(lines, lo)
	case env[len(env)-1].A <= 0: // entirely non-increasing
		return hi, minimax.Eval(lines, hi)
	}
	// The minimizer is where the first envelope line of non-negative slope
	// meets the previous (negative-slope) one.
	k := sort.Search(len(env), func(i int) bool { return env[i].A >= 0 })
	x := intersect(env[k-1], env[k])
	if x < lo {
		x = lo
	} else if x > hi {
		x = hi
	}
	return x, minimax.Eval(lines, x)
}

// intersect returns the x where two non-parallel lines meet.
func intersect(l1, l2 minimax.Line) float64 { return (l2.B - l1.B) / (l1.A - l2.A) }

// sortedHull returns the lines forming the upper envelope, by strictly
// increasing slope.
func sortedHull(lines []minimax.Line) []minimax.Line {
	ls := append([]minimax.Line(nil), lines...)
	sort.Slice(ls, func(a, b int) bool {
		if ls[a].A != ls[b].A {
			return ls[a].A < ls[b].A
		}
		return ls[a].B < ls[b].B
	})
	// Drop duplicate slopes, keeping the largest intercept (last after sort).
	dedup := ls[:0]
	for i, l := range ls {
		if i+1 < len(ls) && ls[i+1].A == l.A {
			continue
		}
		dedup = append(dedup, l)
	}
	ls = dedup
	if len(ls) <= 2 {
		return ls
	}
	hull := make([]minimax.Line, 0, len(ls))
	for _, l := range ls {
		for len(hull) >= 2 {
			// hull[len-1] is unnecessary if l overtakes hull[len-2] no later
			// than hull[len-1] does.
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			if intersect(a, l) <= intersect(a, b) {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, l)
	}
	return hull
}
