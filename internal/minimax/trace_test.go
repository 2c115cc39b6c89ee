package minimax

import (
	"math"
	"math/rand"
	"testing"
)

// probes are lines to prepend to a solved set: its own lines again, their
// neighbours an ulp or a unit away in slope or intercept (or with the
// intercept's sign flipped, which turns a 0 into a -0), lines through
// the answer (and an ulp under it) at the set's slopes and at others,
// flat lines at the answer, random lines, and lines no run can order.
func probes(rng *rand.Rand, lines []Line, x, y float64) []Line {
	var ps []Line
	up, down := math.Inf(1), math.Inf(-1)
	for _, l := range lines {
		ps = append(ps, l,
			Line{l.A, math.Nextafter(l.B, down)}, Line{l.A, math.Nextafter(l.B, up)},
			Line{math.Nextafter(l.A, down), l.B}, Line{math.Nextafter(l.A, up), l.B},
			Line{l.A, l.B - 1}, Line{l.A + 0.5, l.B - 2}, Line{l.A - 0.5, l.B - 2}, Line{l.A, -l.B})
		for _, yy := range []float64{y, math.Nextafter(y, down)} {
			ps = append(ps, Line{l.A, yy - l.A*x}, Line{-l.A, yy + l.A*x})
		}
	}
	for _, a := range []float64{0, 1, -1, 1e-9, -1e-9, 1e9, -1e9} {
		ps = append(ps, Line{a, y - a*x}, Line{a, math.Nextafter(y, down) - a*x}, Line{a, y - a*x - 1})
	}
	for k := 0; k < 64; k++ {
		ps = append(ps, Line{rng.NormFloat64() * 3, y + rng.NormFloat64()*4})
	}
	return append(ps, Line{}, Line{math.NaN(), 0}, Line{0, math.NaN()},
		Line{math.Inf(1), 0}, Line{math.Inf(-1), 0}, Line{0, math.Inf(-1)})
}

// TestAdmittedLinesKeepTheAnswer is the certificate's differential test:
// on sets built to stress each comparison the solver makes, every line
// Admits accepts, prepended alone and prepended after the lines it
// accepted before, must leave MinimizeMax's answer bit for bit.
func TestAdmittedLinesKeepTheAnswer(t *testing.T) {
	vee := []Line{{A: -1, B: 2}, {A: 1, B: 0}} // meets at x = 1
	tangents := make([]Line, 40)
	for i := range tangents {
		p := -10 + 0.5*float64(i)
		tangents[i] = Line{A: 2 * p, B: -p * p}
	}
	cases := []struct {
		name      string
		lines     []Line
		lo, hi    float64
		certified bool
		rounds    int // the rounds the run takes, 0 for a monotone set
	}{
		{"vee", vee, -10, 10, true, 1},
		{"concurrent at one point", []Line{{-3, 5}, {-1, 3}, {-0.5, 2.5}, {0.5, 1.5}, {2, 0}, {4, -2}}, -10, 10, true, 1},
		// Through one point in the reals only: rounding orders the
		// crossings (the solver takes the flatter falling line).
		{"concurrent to rounding", []Line{{-0.056644880174292034, 0.9254901960784314}, {2, 0}, {-0.2222222222222222, 1}}, 0, 4.5, true, 2},
		{"parallel lines", []Line{{-1, 0}, {-1, 5}, {-1, 3}, {1, 5}, {1, -3}, {1, 5}}, -10, 10, true, 1},
		{"duplicate lines", []Line{vee[0], vee[1], vee[0], vee[1], vee[1]}, -10, 10, true, 1},
		// A line equal to a seat but for a zero's sign wins the seat and
		// the crossing's sign with it.
		{"signed zeros", []Line{{-1, 0}, {1, math.Copysign(0, -1)}}, -10, 10, true, 1},
		{"all rising", []Line{{1, 0}, {2, -1}, {0, 0.5}, {3, -3}}, -1, 3, true, 0},
		{"all falling", []Line{{-1, 0}, {-2, 1}, {-0.5, -0.5}}, -1, 3, true, 0},
		{"clamped to lo", vee, 2, 5, true, 1},
		{"clamped to hi", vee, -5, 0.5, true, 1},
		{"tangents of a parabola", tangents, -100, 100, true, 2},
		// Near-concurrent lines whose crossings rounding cycles: the run
		// ends on the round cap, and one more line would add a round.
		{"round cap", []Line{
			{A: 0.18140766392595065, B: -0.23634270158934442}, {A: 1.1092550787632824, B: -0.6866362802393868},
			{A: -1.9568453288534284, B: 0.8013727425460396}, {A: -0.2277676353736174, B: -0.03776585924387448},
			{A: -0.44845827094425617, B: 0.06933750115410388}}, -100, 100, false, 0},
	}
	rng := rand.New(rand.NewSource(47))
	for _, c := range cases {
		var tr Trace
		x, y := tr.Solve(c.lines, c.lo, c.hi)
		if tr.certified != c.certified || (c.certified && tr.nr != c.rounds) {
			t.Fatalf("%s: certified %v after %d rounds, want %v after %d", c.name, tr.certified, tr.nr, c.certified, c.rounds)
		}
		chain := append([]Line(nil), c.lines...)
		admitted := 0
		for _, p := range probes(rng, c.lines, x, y) {
			if !tr.Admits(p) {
				continue
			}
			admitted++
			chain = append([]Line{p}, chain...)
			for _, ls := range [][]Line{append([]Line{p}, c.lines...), chain} {
				if gx, gy := MinimizeMax(ls, c.lo, c.hi); math.Float64bits(gx) != math.Float64bits(x) || math.Float64bits(gy) != math.Float64bits(y) {
					t.Fatalf("%s: admitted %v, but MinimizeMax(%v) = (%v, %v), not (%v, %v)", c.name, p, ls, gx, gy, x, y)
				}
			}
		}
		if c.certified != (admitted > 0) {
			t.Fatalf("%s: certified %v, admitted %d probes", c.name, c.certified, admitted)
		}
	}
}

// Random sets, and lines prepended one at a time as the histogram sweep
// does: each admitted line keeps the answer, and a rejected one is
// re-solved and re-traced, so the trace always belongs to the set so far.
func TestTraceFollowsPrependedLines(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var admitted, solved int
	for trial := 0; trial < 2000; trial++ {
		lines := []Line{{A: rng.NormFloat64(), B: rng.NormFloat64()}}
		var tr Trace
		tr.Solve(lines, -3, 3)
		for k := 0; k < 30; k++ {
			var p Line
			switch k % 3 {
			case 0: // small integers: ties and concurrent lines
				p = Line{A: float64(rng.Intn(7) - 3), B: float64(rng.Intn(7) - 3)}
			case 1: // an existing line, shifted down by an ulp or not at all
				p = lines[rng.Intn(len(lines))]
				if rng.Intn(2) == 0 {
					p.B = math.Nextafter(p.B, math.Inf(-1))
				}
			default:
				p = Line{A: rng.NormFloat64(), B: rng.NormFloat64() - 1}
			}
			x, y := tr.Answer()
			ok := tr.Admits(p)
			lines = append([]Line{p}, lines...)
			wx, wy := MinimizeMax(lines, -3, 3)
			if ok {
				admitted++
				if math.Float64bits(x) != math.Float64bits(wx) || math.Float64bits(y) != math.Float64bits(wy) {
					t.Fatalf("trial %d: admitted %v, but MinimizeMax(%v) = (%v, %v), not (%v, %v)", trial, p, lines, wx, wy, x, y)
				}
				continue
			}
			solved++
			if gx, gy := tr.Solve(lines, -3, 3); math.Float64bits(gx) != math.Float64bits(wx) || math.Float64bits(gy) != math.Float64bits(wy) {
				t.Fatalf("trial %d: Solve = (%v, %v), MinimizeMax (%v, %v)", trial, gx, gy, wx, wy)
			}
		}
	}
	if admitted == 0 || solved == 0 {
		t.Fatalf("%d lines admitted, %d re-solved: the test exercises one branch only", admitted, solved)
	}
	t.Logf("%d lines admitted, %d re-solved", admitted, solved)
}
