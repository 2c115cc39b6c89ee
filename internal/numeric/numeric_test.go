package numeric

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSumEmpty(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %v, want 0", got)
	}
}

func TestSumSingle(t *testing.T) {
	if got := Sum([]float64{3.25}); got != 3.25 {
		t.Fatalf("Sum = %v, want 3.25", got)
	}
}

// Kahan-Neumaier must recover the classic catastrophic-cancellation case
// where plain left-to-right summation loses the small term entirely.
func TestSumAdversarial(t *testing.T) {
	xs := []float64{1e16, 1, -1e16}
	if got := Sum(xs); got != 1 {
		t.Fatalf("compensated Sum = %v, want 1", got)
	}
	naive := 0.0
	for _, x := range xs {
		naive += x
	}
	if naive == 1 {
		t.Skip("platform summed naively without error; adversarial case vacuous")
	}
}

func TestSumNeumaierClassic(t *testing.T) {
	// Neumaier's example: [1, 1e100, 1, -1e100] sums to 2.
	xs := []float64{1, 1e100, 1, -1e100}
	if got := Sum(xs); got != 2 {
		t.Fatalf("Sum = %v, want 2", got)
	}
}

func TestAccumulatorReset(t *testing.T) {
	var a Accumulator
	a.Add(5)
	a.Reset()
	a.Add(2)
	if got := a.Value(); got != 2 {
		t.Fatalf("after Reset, Value = %v, want 2", got)
	}
}

func TestSumMatchesBigAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 10000)
	exact := 0.0 // accumulate in descending magnitude order for reference
	for i := range xs {
		xs[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)))
	}
	sorted := append([]float64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return math.Abs(sorted[i]) > math.Abs(sorted[j]) })
	var a Accumulator
	for _, x := range sorted {
		a.Add(x)
	}
	exact = a.Value()
	if got := Sum(xs); !almostEqual(got, exact, 1e-9) {
		t.Fatalf("Sum = %v, reference = %v", got, exact)
	}
}

func TestPrefixSumsBasics(t *testing.T) {
	p := PrefixSums([]float64{1, 2, 3})
	want := []float64{0, 1, 3, 6}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("p[%d] = %v, want %v", i, p[i], want[i])
		}
	}
}

func TestPrefixRange(t *testing.T) {
	pp := NewPrefix([]float64{2, 4, 8, 16})
	cases := []struct {
		s, e int
		want float64
	}{
		{0, 3, 30}, {0, 0, 2}, {1, 2, 12}, {3, 3, 16}, {2, 1, 0},
	}
	for _, c := range cases {
		if got := pp.Range(c.s, c.e); got != c.want {
			t.Errorf("Range(%d,%d) = %v, want %v", c.s, c.e, got, c.want)
		}
	}
	if pp.Len() != 4 {
		t.Errorf("Len = %d, want 4", pp.Len())
	}
}

func TestPrefixRangeMatchesDirectSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}
	pp := NewPrefix(xs)
	for trial := 0; trial < 200; trial++ {
		s := rng.Intn(len(xs))
		e := s + rng.Intn(len(xs)-s)
		var a Accumulator
		for i := s; i <= e; i++ {
			a.Add(xs[i])
		}
		if got, want := pp.Range(s, e), a.Value(); !almostEqual(got, want, 1e-9) {
			t.Fatalf("Range(%d,%d) = %v, want %v", s, e, got, want)
		}
	}
}

func TestMinConvexGridQuadratic(t *testing.T) {
	f := func(k int) float64 { x := float64(k) - 7.3; return x * x }
	k, v := MinConvexGrid(0, 100, f)
	if k != 7 {
		t.Fatalf("argmin = %d, want 7", k)
	}
	if v != f(7) {
		t.Fatalf("min = %v, want %v", v, f(7))
	}
}

func TestMinConvexGridPlateau(t *testing.T) {
	// Flat valley: ternary search can stall on plateaus, the convex-grid
	// binary search must return the leftmost minimizer.
	f := func(k int) float64 {
		switch {
		case k < 3:
			return float64(3 - k)
		case k <= 6:
			return 0
		default:
			return float64(k - 6)
		}
	}
	k, v := MinConvexGrid(0, 20, f)
	if k != 3 || v != 0 {
		t.Fatalf("got (%d,%v), want leftmost minimizer (3,0)", k, v)
	}
}

func TestMinConvexGridEdges(t *testing.T) {
	inc := func(k int) float64 { return float64(k) }
	if k, _ := MinConvexGrid(2, 9, inc); k != 2 {
		t.Errorf("increasing: argmin %d, want 2", k)
	}
	dec := func(k int) float64 { return float64(-k) }
	if k, _ := MinConvexGrid(2, 9, dec); k != 9 {
		t.Errorf("decreasing: argmin %d, want 9", k)
	}
	if k, v := MinConvexGrid(5, 5, inc); k != 5 || v != 5 {
		t.Errorf("degenerate: got (%d,%v)", k, v)
	}
}

func TestMinConvexGridRandomQuadratics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		center := rng.Float64()*50 - 10
		a := rng.Float64() + 0.1
		f := func(k int) float64 { x := float64(k) - center; return a * x * x }
		k, _ := MinConvexGrid(0, 60, f)
		// brute force
		bestK, bestV := 0, f(0)
		for i := 1; i <= 60; i++ {
			if v := f(i); v < bestV {
				bestK, bestV = i, v
			}
		}
		if f(k) != bestV {
			t.Fatalf("trial %d: argmin %d (%v) vs brute %d (%v)", trial, k, f(k), bestK, bestV)
		}
	}
}

func TestSearchFloats(t *testing.T) {
	v := []float64{1, 3, 3, 5, 9}
	cases := []struct {
		x    float64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 3}, {9, 4}, {10, 5}}
	for _, c := range cases {
		if got := SearchFloats(v, c.x); got != c.want {
			t.Errorf("SearchFloats(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	if got := SearchFloats(nil, 1); got != 0 {
		t.Errorf("SearchFloats(nil) = %d, want 0", got)
	}
}

func TestSearchFloatsMatchesSortPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := make([]float64, 100)
	for i := range v {
		v[i] = math.Floor(rng.Float64() * 50)
	}
	sort.Float64s(v)
	for trial := 0; trial < 300; trial++ {
		x := rng.Float64() * 55
		if got, want := SearchFloats(v, x), sort.SearchFloat64s(v, x); got != want {
			t.Fatalf("SearchFloats(%v) = %d, want %d", x, got, want)
		}
	}
}

// almostEqual reports whether a and b agree to within tol absolutely or
// relatively, whichever is looser.
func almostEqual(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// Property: prefix range sums equal compensated direct sums.
func TestQuickPrefixConsistency(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// keep magnitudes sane so the reference is well-defined
			xs = append(xs, math.Mod(x, 1e6))
		}
		pp := NewPrefix(xs)
		whole := Sum(xs)
		return almostEqual(pp.Range(0, len(xs)-1), whole, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
