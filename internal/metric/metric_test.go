package metric

import (
	"math"
	"testing"
)

func TestStringAndParseRoundTrip(t *testing.T) {
	for _, k := range []Kind{SSE, SSEFixed, SSRE, SAE, SARE, MAE, MARE} {
		got, err := Parse(k.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("Parse(%q) = %v, want %v", k.String(), got, k)
		}
	}
}

func TestParseUnknown(t *testing.T) {
	if _, err := Parse("L7"); err == nil {
		t.Fatal("Parse of unknown metric should fail")
	}
}

func TestCumulative(t *testing.T) {
	for _, k := range []Kind{SSE, SSEFixed, SSRE, SAE, SARE} {
		if !k.Cumulative() {
			t.Errorf("%v should be cumulative", k)
		}
	}
	for _, k := range []Kind{MAE, MARE} {
		if k.Cumulative() {
			t.Errorf("%v should be a maximum metric", k)
		}
	}
}

func TestRelative(t *testing.T) {
	for _, k := range []Kind{SSRE, SARE, MARE} {
		if !k.Relative() {
			t.Errorf("%v should be relative", k)
		}
	}
	for _, k := range []Kind{SSE, SSEFixed, SAE, MAE} {
		if k.Relative() {
			t.Errorf("%v should not be relative", k)
		}
	}
}

func TestParamsCheck(t *testing.T) {
	for _, c := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 0.5, 1e300} {
		ok := c > 0 && !math.IsInf(c, 1)
		for _, k := range []Kind{SSE, SSEFixed, SSRE, SAE, SARE, MAE, MARE} {
			if err := (Params{C: c}).Check(k); (err == nil) != (ok || !k.Relative()) {
				t.Errorf("%v with c = %v: Check = %v", k, c, err)
			}
		}
	}
}

func TestPointErrorValues(t *testing.T) {
	p := Params{C: 0.5}
	cases := []struct {
		k       Kind
		g, ghat float64
		want    float64
	}{
		{SSE, 3, 1, 4},
		{SSEFixed, 3, 1, 4},
		{SSRE, 3, 1, 4.0 / 9.0},         // denom max(0.5,3)^2 = 9
		{SSRE, 0.25, 0.75, 0.25 / 0.25}, // denom max(0.5,0.25)^2 = 0.25
		{SAE, 3, 1, 2},
		{SARE, 3, 1, 2.0 / 3.0},
		{SARE, 0, 1, 1 / 0.5},
		{MAE, -1, 2, 3},
		{MARE, 2, 5, 1.5},
	}
	for _, c := range cases {
		if got := c.k.PointError(c.g, c.ghat, p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v.PointError(%v,%v) = %v, want %v", c.k, c.g, c.ghat, got, c.want)
		}
	}
}

func TestPointErrorZeroAtExact(t *testing.T) {
	p := DefaultParams()
	for _, k := range []Kind{SSE, SSEFixed, SSRE, SAE, SARE, MAE, MARE} {
		if got := k.PointError(7, 7, p); got != 0 {
			t.Errorf("%v.PointError(7,7) = %v, want 0", k, got)
		}
	}
}

func TestWeight(t *testing.T) {
	p := Params{C: 2}
	if w := SSRE.Weight(1, p); w != 0.25 {
		t.Errorf("SSRE weight below sanity bound: %v, want 1/4", w)
	}
	if w := SSRE.Weight(4, p); w != 1.0/16 {
		t.Errorf("SSRE weight above sanity bound: %v, want 1/16", w)
	}
	if w := SARE.Weight(1, p); w != 0.5 {
		t.Errorf("SARE weight: %v, want 1/2", w)
	}
	if w := SAE.Weight(123, p); w != 1 {
		t.Errorf("SAE weight must be 1, got %v", w)
	}
}

// Weight and PointError must agree: err = weight(g) * |g-ghat|^p.
func TestWeightConsistentWithPointError(t *testing.T) {
	p := Params{C: 0.7}
	gs := []float64{0, 0.3, 0.7, 1, 2.5, 10}
	ghats := []float64{0, 1.1, 3}
	for _, g := range gs {
		for _, ghat := range ghats {
			d := math.Abs(g - ghat)
			if got, want := SSRE.PointError(g, ghat, p), SSRE.Weight(g, p)*d*d; math.Abs(got-want) > 1e-12 {
				t.Errorf("SSRE inconsistency at g=%v ghat=%v: %v vs %v", g, ghat, got, want)
			}
			if got, want := SARE.PointError(g, ghat, p), SARE.Weight(g, p)*d; math.Abs(got-want) > 1e-12 {
				t.Errorf("SARE inconsistency at g=%v ghat=%v: %v vs %v", g, ghat, got, want)
			}
		}
	}
}
