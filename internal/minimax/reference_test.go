package minimax_test

import (
	"math"
	"math/rand"
	"testing"

	"probsyn/internal/minimax"
	"probsyn/internal/ptest"
)

// sameAsHull fails unless MinimizeMax returns the reference's bits.
func sameAsHull(t *testing.T, name string, lines []minimax.Line, lo, hi float64) {
	t.Helper()
	x, y := minimax.MinimizeMax(lines, lo, hi)
	wx, wy := ptest.SortedHullMinimizeMax(lines, lo, hi)
	if math.Float64bits(x) != math.Float64bits(wx) || math.Float64bits(y) != math.Float64bits(wy) {
		t.Fatalf("%s: minimax.MinimizeMax(%v, %v, %v) = (%v, %v), sorted hull gives (%v, %v)", name, lines, lo, hi, x, y, wx, wy)
	}
}

func TestMatchesSortedHullRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 5000; trial++ {
		lines := make([]minimax.Line, 1+rng.Intn(40))
		for i := range lines {
			lines[i] = minimax.Line{A: rng.NormFloat64() * 3, B: rng.NormFloat64() * 5}
		}
		lo := rng.Float64()*4 - 2
		sameAsHull(t, "random", lines, lo, lo+rng.Float64()*6)
	}
}

// Tangents of a parabola are all on the envelope: the longest hull a set
// of k lines can have, and the most rounds the pair search can need.
func TestMatchesSortedHullAllOnEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		lines := make([]minimax.Line, 2+rng.Intn(200))
		for i := range lines {
			p := rng.Float64()*20 - 10 + float64(trial%5)
			lines[i] = minimax.Line{A: 2 * p, B: -p * p}
		}
		sameAsHull(t, "tangents", lines, -100, 100)
		sameAsHull(t, "tangents, clamped", lines, 3, 4)
	}
}

func TestMatchesSortedHullDegenerate(t *testing.T) {
	vee := []minimax.Line{{A: -1, B: 2}, {A: 1, B: 0}} // meets at x = 1
	cases := []struct {
		name   string
		lines  []minimax.Line
		lo, hi float64
	}{
		{"single falling", []minimax.Line{{A: -2, B: 1}}, -1, 3},
		{"single rising", []minimax.Line{{A: 2, B: 1}}, -1, 3},
		{"single flat", []minimax.Line{{A: 0, B: 4}}, 0, 1},
		{"all parallel falling", []minimax.Line{{A: -1, B: 0}, {A: -1, B: 5}, {A: -1, B: 3}}, -10, 10},
		{"all parallel rising", []minimax.Line{{A: 1, B: 0}, {A: 1, B: 5}, {A: 1, B: 3}}, -10, 10},
		{"all flat", []minimax.Line{{A: 0, B: 1}, {A: 0, B: 7}, {A: 0, B: 3}}, -10, 10},
		{"flat and falling", []minimax.Line{{A: 0, B: 1}, {A: -1, B: 0}}, -10, 10},
		{"parallels beside a vee", []minimax.Line{{A: -1, B: 0}, {A: -1, B: 5}, {A: 1, B: 5}, {A: 1, B: -3}}, -10, 10},
		{"duplicates", []minimax.Line{vee[0], vee[1], vee[0], vee[1], vee[1]}, -10, 10},
		{"all the same line", []minimax.Line{vee[0], vee[0], vee[0]}, -10, 10},
		{"lo == hi inside", vee, 1, 1},
		{"lo == hi left", vee, -3, -3},
		{"lo == hi right", vee, 8, 8},
		{"clamped at lo", vee, 2, 5},
		{"clamped at hi", vee, -5, 0.5},
		{"reversed interval", vee, 5, -5},
		{"three through one point", []minimax.Line{{A: -2, B: 4}, {A: -1, B: 3}, {A: 1, B: 1}}, -10, 10},
		{"four through one point", []minimax.Line{{A: -2, B: 4}, {A: 1, B: 1}, {A: -1, B: 3}, {A: 3, B: -1}}, -10, 10},
		{"flat through the crossing", []minimax.Line{{A: -1, B: 2}, {A: 0, B: 1}, {A: 1, B: 0}}, -10, 10},
		{"dominated middle", []minimax.Line{{A: -1, B: 0}, {A: 0, B: -100}, {A: 1, B: 0}}, -5, 5},
		{"zero lines among others", []minimax.Line{{}, {A: -0.5, B: 3}, {}, {A: 0.25, B: 1}}, 0, 10},
	}
	for _, c := range cases {
		sameAsHull(t, c.name, c.lines, c.lo, c.hi)
		// The answer may not depend on the order the lines come in.
		rev := make([]minimax.Line, len(c.lines))
		for i, l := range c.lines {
			rev[len(rev)-1-i] = l
		}
		sameAsHull(t, c.name+", reversed", rev, c.lo, c.hi)
	}
}

func TestMinimizeMaxDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	lines := make([]minimax.Line, 64)
	for i := range lines {
		lines[i] = minimax.Line{A: 2*rng.Float64() - 1, B: 10 * rng.Float64()}
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		_, y := minimax.MinimizeMax(lines, 0, 10)
		sink += y
	}); n != 0 {
		t.Fatalf("MinimizeMax allocates %v times per call, want 0", n)
	}
	_ = sink
}
