package haar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Figure 1 of the paper: A = [2,2,0,2,3,5,4,4] has unnormalized
// coefficients [11/4, -5/4, 1/2, 0, 0, -1, -1, 0].
func TestFigure1Golden(t *testing.T) {
	a := []float64{2, 2, 0, 2, 3, 5, 4, 4}
	c := Forward(a)
	want := []float64{11.0 / 4, -5.0 / 4, 0.5, 0, 0, -1, -1, 0}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-12 {
			t.Errorf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	a := []float64{2, 2, 0, 2, 3, 5, 4, 4}
	got := Inverse(Forward(a))
	for i := range a {
		if math.Abs(got[i]-a[i]) > 1e-12 {
			t.Errorf("roundtrip[%d] = %v, want %v", i, got[i], a[i])
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 10
		}
		nc := Normalize(Forward(a))
		sumA, sumC := 0.0, 0.0
		for i := range a {
			sumA += a[i] * a[i]
			sumC += nc[i] * nc[i]
		}
		if math.Abs(sumA-sumC) > 1e-8*math.Max(1, sumA) {
			t.Errorf("n=%d: energy %v (data) vs %v (normalized coeffs)", n, sumA, sumC)
		}
	}
}

func TestNormalizeRoundTrip(t *testing.T) {
	a := []float64{1, -3, 2, 7}
	c := Forward(a)
	for i, v := range Normalize(c) {
		if back := v / NormFactor(i, len(c)); math.Abs(back-c[i]) > 1e-12 {
			t.Errorf("norm[%d] / NormFactor = %v, want %v", i, back, c[i])
		}
	}
}

func TestQuickRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(7))
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 100
		}
		got := Inverse(Forward(a))
		for i := range a {
			if math.Abs(got[i]-a[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelSupport(t *testing.T) {
	n := 8
	cases := []struct {
		i, level, size, lo, hi int
	}{
		{0, 0, 8, 0, 7},
		{1, 0, 8, 0, 7},
		{2, 1, 4, 0, 3},
		{3, 1, 4, 4, 7},
		{4, 2, 2, 0, 1},
		{7, 2, 2, 6, 7},
	}
	for _, c := range cases {
		if got := Level(c.i); got != c.level {
			t.Errorf("Level(%d) = %d, want %d", c.i, got, c.level)
		}
		if got := SupportSize(c.i, n); got != c.size {
			t.Errorf("SupportSize(%d) = %d, want %d", c.i, got, c.size)
		}
		lo, hi := Support(c.i, n)
		if lo != c.lo || hi != c.hi {
			t.Errorf("Support(%d) = [%d,%d], want [%d,%d]", c.i, lo, hi, c.lo, c.hi)
		}
	}
}

func TestSign(t *testing.T) {
	n := 8
	// c[1] is + on leaves 0..3, - on 4..7.
	for k := 0; k < 4; k++ {
		if Sign(1, k, n) != 1 {
			t.Errorf("Sign(1,%d) should be +1", k)
		}
	}
	for k := 4; k < 8; k++ {
		if Sign(1, k, n) != -1 {
			t.Errorf("Sign(1,%d) should be -1", k)
		}
	}
	if Sign(4, 5, n) != 0 {
		t.Error("Sign outside support should be 0")
	}
	if Sign(0, 6, n) != 1 {
		t.Error("average contributes +1 everywhere")
	}
}

func TestPath(t *testing.T) {
	p := Path(5, 8)
	want := []int{0, 1, 3, 6} // leaf 5: root avg, c1, right child c3, then c6 (leaves 4,5)
	if len(p) != len(want) {
		t.Fatalf("Path(5,8) = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("Path(5,8) = %v, want %v", p, want)
		}
	}
}

func TestTopK(t *testing.T) {
	a := []float64{2, 2, 0, 2, 3, 5, 4, 4}
	c := Forward(a)
	top := TopK(c, 3)
	// Normalized magnitudes: c0: 2.75*sqrt8≈7.78, c1: 1.25*sqrt8≈3.54,
	// c5,c6: 1*sqrt2≈1.41, c2: .5*2=1. So top3 = [0,1,5].
	want := []int{0, 1, 5}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", top, want)
		}
	}
	if got := len(TopK(c, 100)); got != 8 {
		t.Errorf("TopK capped length = %d, want 8", got)
	}
	if got := len(TopK(c, -1)); got != 0 {
		t.Errorf("TopK(-1) length = %d, want 0", got)
	}
}

// Keeping the TopK normalized coefficients and zeroing the rest must give
// the minimum SSE among all same-size coefficient subsets (Parseval).
func TestTopKIsSSEOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 8
	a := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64() * 5
	}
	c := Forward(a)
	B := 3
	sseOf := func(keep map[int]bool) float64 {
		kc := make([]float64, n)
		for i := range kc {
			if keep[i] {
				kc[i] = c[i]
			}
		}
		rec := Inverse(kc)
		s := 0.0
		for i := range a {
			d := a[i] - rec[i]
			s += d * d
		}
		return s
	}
	topSet := make(map[int]bool)
	for _, i := range TopK(c, B) {
		topSet[i] = true
	}
	topSSE := sseOf(topSet)
	// brute force all C(8,3) subsets
	for mask := 0; mask < 1<<n; mask++ {
		if popcount(mask) != B {
			continue
		}
		keep := make(map[int]bool)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				keep[i] = true
			}
		}
		if s := sseOf(keep); s < topSSE-1e-9 {
			t.Fatalf("subset %b has SSE %v < TopK SSE %v", mask, s, topSSE)
		}
	}
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		c += x & 1
		x >>= 1
	}
	return c
}

func TestChildren(t *testing.T) {
	n := 8
	if l, r, leaf := Children(1, n); l != 2 || r != 3 || leaf {
		t.Errorf("Children(1) = (%d,%d,%v)", l, r, leaf)
	}
	if l, r, leaf := Children(4, n); l != 0 || r != 1 || !leaf {
		t.Errorf("Children(4) = (%d,%d,%v), want leaves 0,1", l, r, leaf)
	}
	if l, r, leaf := Children(7, n); l != 6 || r != 7 || !leaf {
		t.Errorf("Children(7) = (%d,%d,%v), want leaves 6,7", l, r, leaf)
	}
	if l, _, leaf := Children(0, n); l != 1 || leaf {
		t.Errorf("Children(0) should point at node 1")
	}
}

func TestPadAndPow2(t *testing.T) {
	if !IsPow2(1) || !IsPow2(64) || IsPow2(0) || IsPow2(12) {
		t.Error("IsPow2 misbehaves")
	}
	if Pow2Ceil(1) != 1 || Pow2Ceil(5) != 8 || Pow2Ceil(8) != 8 {
		t.Error("Pow2Ceil misbehaves")
	}
	in := []float64{1, 2, 3}
	out := Pad(in)
	if len(out) != 4 || out[3] != 0 || out[0] != 1 {
		t.Errorf("Pad = %v", out)
	}
	same := []float64{1, 2}
	if got := Pad(same); &got[0] != &same[0] {
		t.Error("Pad should return input unchanged for power-of-two length")
	}
}

func TestForwardPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Forward should panic on non-power-of-two input")
		}
	}()
	Forward(make([]float64, 3))
}
