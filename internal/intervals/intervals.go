// Package intervals implements a static centered interval tree supporting
// stabbing queries: report all intervals containing a query point. The
// tuple-pdf SSE oracle uses it to locate the tuples whose alternative spans
// straddle a bucket boundary (§3.1; DESIGN.md finding 3).
package intervals

import "sort"

// Interval is a closed integer interval [Lo, Hi] carrying a caller ID.
type Interval struct {
	Lo, Hi int
	ID     int
}

// Tree is an immutable centered interval tree.
type Tree struct {
	root *node
	size int
}

type node struct {
	center      int
	byLo        []Interval // intervals containing center, ascending Lo
	byHi        []Interval // same intervals, descending Hi
	left, right *node
}

// New builds a tree over the given intervals. Intervals with Lo > Hi are
// ignored. The input slice is not retained.
func New(ivs []Interval) *Tree {
	valid := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Lo <= iv.Hi {
			valid = append(valid, iv)
		}
	}
	t := &Tree{size: len(valid)}
	t.root = build(valid)
	return t
}

func build(ivs []Interval) *node {
	if len(ivs) == 0 {
		return nil
	}
	// Center on the median of all endpoints for balance.
	endpoints := make([]int, 0, 2*len(ivs))
	for _, iv := range ivs {
		endpoints = append(endpoints, iv.Lo, iv.Hi)
	}
	sort.Ints(endpoints)
	center := endpoints[len(endpoints)/2]

	var leftIvs, rightIvs, here []Interval
	for _, iv := range ivs {
		switch {
		case iv.Hi < center:
			leftIvs = append(leftIvs, iv)
		case iv.Lo > center:
			rightIvs = append(rightIvs, iv)
		default:
			here = append(here, iv)
		}
	}
	n := &node{center: center}
	n.byLo = append([]Interval(nil), here...)
	sort.Slice(n.byLo, func(a, b int) bool { return n.byLo[a].Lo < n.byLo[b].Lo })
	n.byHi = append([]Interval(nil), here...)
	sort.Slice(n.byHi, func(a, b int) bool { return n.byHi[a].Hi > n.byHi[b].Hi })
	n.left = build(leftIvs)
	n.right = build(rightIvs)
	return n
}

// Size returns the number of stored intervals.
func (t *Tree) Size() int { return t.size }

// Stab calls visit for every interval containing x, in unspecified order.
// Traversal stops early if visit returns false.
func (t *Tree) Stab(x int, visit func(Interval) bool) {
	stab(t.root, x, visit)
}

func stab(n *node, x int, visit func(Interval) bool) bool {
	if n == nil {
		return true
	}
	switch {
	case x < n.center:
		for _, iv := range n.byLo {
			if iv.Lo > x {
				break
			}
			if !visit(iv) {
				return false
			}
		}
		return stab(n.left, x, visit)
	case x > n.center:
		for _, iv := range n.byHi {
			if iv.Hi < x {
				break
			}
			if !visit(iv) {
				return false
			}
		}
		return stab(n.right, x, visit)
	default: // x == center: every interval stored here contains x
		for _, iv := range n.byLo {
			if !visit(iv) {
				return false
			}
		}
		return true
	}
}
