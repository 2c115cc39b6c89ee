package wavelet

import (
	"math/rand"
	"reflect"
	"testing"

	"probsyn/internal/engine"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
)

func liveRandItem(rng *rand.Rand) pdata.ItemPDF {
	k := 1 + rng.Intn(3)
	entries := make([]pdata.FreqProb, 0, k)
	remaining := 1.0
	for j := 0; j < k; j++ {
		p := float64(1+rng.Intn(4)) * 0.125
		if p > remaining {
			break
		}
		remaining -= p
		entries = append(entries, pdata.FreqProb{Freq: float64(rng.Intn(6)), Prob: p})
	}
	return pdata.ItemPDF{Entries: entries}
}

func liveRandVP(rng *rand.Rand, n int) *pdata.ValuePDF {
	vp := &pdata.ValuePDF{N: n, Items: make([]pdata.ItemPDF, n)}
	for i := range vp.Items {
		vp.Items[i] = liveRandItem(rng)
	}
	return vp
}

// freshSweep builds the from-scratch frontier a live state must match.
func freshSweep(t *testing.T, vp *pdata.ValuePDF, family Family, k metric.Kind, p metric.Params, B, q int, pool *engine.Pool) *Sweep {
	t.Helper()
	sw, err := NewSweep(vp, family, k, p, B, q, pool)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func assertLiveMatchesSweep(t *testing.T, lv *Live, sw *Sweep, tag string) {
	t.Helper()
	if lv.Bmax() != sw.Bmax() {
		t.Fatalf("%s: Bmax %d vs fresh %d", tag, lv.Bmax(), sw.Bmax())
	}
	// A zero-budget frontier has the one budget 0.
	for b := min(1, lv.Bmax()); b <= lv.Bmax(); b++ {
		got, err := lv.Synopsis(b)
		if err != nil {
			t.Fatalf("%s: budget %d: %v", tag, b, err)
		}
		want, err := sw.Synopsis(b)
		if err != nil {
			t.Fatalf("%s: budget %d: %v", tag, b, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: budget %d: live synopsis diverges from fresh sweep\n got: %+v\nwant: %+v", tag, b, got, want)
		}
		if lc, sc := lv.Cost(b), sw.Cost(b); lc != sc {
			t.Fatalf("%s: budget %d: live cost %v vs fresh %v", tag, b, lc, sc)
		}
	}
}

// TestLiveWaveletMatchesFresh drives each family through a random
// mutation sequence — appends inside the padding, appends that regrow
// it, mean-changing and mean-preserving updates — asserting after every
// step that the live state extracts exactly what a fresh sweep over the
// mutated data extracts.
func TestLiveWaveletMatchesFresh(t *testing.T) {
	p := metric.Params{C: 0.5}
	cases := []struct {
		name   string
		family Family
		kind   metric.Kind
		q      int
	}{
		{"sse", SSEFamily, metric.SSE, 0},
		{"restricted", RestrictedFamily, metric.SAE, 0},
		{"restricted-max", RestrictedFamily, metric.MAE, 0},
		// q=4 keeps the finest level genuinely quantized at n=16 (and
		// stays quantized after appends regrow the tree to n=32).
		{"restricted-approx", RestrictedFamily, metric.SAE, 4},
		{"unrestricted", UnrestrictedFamily, metric.SAE, 1},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			rng := rand.New(rand.NewSource(13))
			vp := liveRandVP(rng, 13) // pads to 16, 3 free slots
			pool := engine.New(engine.Options{Workers: workers, Grain: 1})
			const B = 6
			lv, err := NewLive(vp, tc.family, tc.kind, p, B, tc.q, pool)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			cur := vp.Clone()
			assertLiveMatchesSweep(t, lv, freshSweep(t, cur, tc.family, tc.kind, p, B, tc.q, pool), tc.name+"/initial")
			for step := 0; step < 8; step++ {
				switch rng.Intn(3) {
				case 0: // append (crosses the padding boundary mid-sequence)
					items := []pdata.ItemPDF{liveRandItem(rng), liveRandItem(rng)}
					for _, it := range items {
						cur.Items = append(cur.Items, it.Clone())
					}
					cur.N = len(cur.Items)
					if err := lv.Append(items); err != nil {
						t.Fatalf("%s step %d append: %v", tc.name, step, err)
					}
				case 1: // mean-changing update
					i := rng.Intn(cur.N)
					it := liveRandItem(rng)
					cur.Items[i] = it.Clone()
					if err := lv.Update(i, it); err != nil {
						t.Fatalf("%s step %d update: %v", tc.name, step, err)
					}
				default: // mean-preserving update: same mean, different spread
					i := rng.Intn(cur.N)
					it := pdata.ItemPDF{Entries: []pdata.FreqProb{
						{Freq: 1, Prob: 0.25}, {Freq: 3, Prob: 0.25},
					}}
					if step%2 == 1 {
						it = pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 2, Prob: 0.5}}}
					}
					cur.Items[i] = it.Clone()
					if err := lv.Update(i, it); err != nil {
						t.Fatalf("%s step %d update: %v", tc.name, step, err)
					}
				}
				sw := freshSweep(t, cur, tc.family, tc.kind, p, B, tc.q, pool)
				assertLiveMatchesSweep(t, lv, sw, tc.name)
			}
		}
	}
}

// TestLiveDirtyPathFastPath pins the headline mechanism: a
// mean-preserving correction must take the dirty-path repair (not a full
// resweep) and still extract byte-identical synopses.
func TestLiveDirtyPathFastPath(t *testing.T) {
	p := metric.Params{C: 0.5}
	rng := rand.New(rand.NewSource(5))
	vp := liveRandVP(rng, 16)
	// Give item 9 an exactly-representable mean so the correction below
	// preserves it bit-for-bit.
	vp.Items[9] = pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 2, Prob: 0.5}}}
	lv, err := NewLive(vp, RestrictedFamily, metric.SAE, p, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// mean 1.0 either way: 0.5*2 == 0.25*1 + 0.25*3.
	corrected := pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 1, Prob: 0.25}, {Freq: 3, Prob: 0.25}}}
	if err := lv.Update(9, corrected); err != nil {
		t.Fatal(err)
	}
	if got := lv.FastRepairs(); got != 1 {
		t.Fatalf("mean-preserving update took the slow path (FastRepairs = %d)", got)
	}
	cur := vp.Clone()
	cur.Items[9] = corrected.Clone()
	assertLiveMatchesSweep(t, lv, freshSweep(t, cur, RestrictedFamily, metric.SAE, p, 5, 0, nil), "fast-path")

	// A mean-changing update must NOT claim the fast path.
	if err := lv.Update(3, pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 5, Prob: 0.5}}}); err != nil {
		t.Fatal(err)
	}
	if got := lv.FastRepairs(); got != 1 {
		t.Fatalf("mean-changing update claimed the fast path (FastRepairs = %d)", got)
	}
}

// TestLiveQuantizedDirtyPathFastPath pins the quantized analogue: the
// retained grids depend only on strict-ancestor candidates, so a
// mean-preserving correction repairs the dirty path blocks on the
// existing grids — no re-bucketing, and still byte-identical to a fresh
// quantized sweep.
func TestLiveQuantizedDirtyPathFastPath(t *testing.T) {
	p := metric.Params{C: 0.5}
	rng := rand.New(rand.NewSource(5))
	vp := liveRandVP(rng, 16)
	vp.Items[9] = pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 2, Prob: 0.5}}}
	const q = 4
	lv, err := NewLive(vp, RestrictedFamily, metric.SAE, p, 5, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lv.ErrorBound() <= 0 {
		t.Fatalf("quantized live frontier reports bound %v, want > 0", lv.ErrorBound())
	}
	corrected := pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 1, Prob: 0.25}, {Freq: 3, Prob: 0.25}}}
	if err := lv.Update(9, corrected); err != nil {
		t.Fatal(err)
	}
	if got := lv.FastRepairs(); got != 1 {
		t.Fatalf("mean-preserving update took the slow path (FastRepairs = %d)", got)
	}
	cur := vp.Clone()
	cur.Items[9] = corrected.Clone()
	assertLiveMatchesSweep(t, lv, freshSweep(t, cur, RestrictedFamily, metric.SAE, p, 5, q, nil), "quantized-fast-path")
}

// TestLiveSmallDomains exercises the singleton and n==2 special cases
// through mutations, at an ordinary budget and at budget 0 (the empty
// synopsis, whose cost still follows the data).
func TestLiveSmallDomains(t *testing.T) {
	p := metric.Params{C: 0.5}
	for _, tc := range []struct {
		family Family
		kind   metric.Kind
		q      int
	}{
		{SSEFamily, metric.SSE, 0},
		{RestrictedFamily, metric.SAE, 0},
		{UnrestrictedFamily, metric.SAE, 1},
	} {
		for _, B := range []int{4, 0} {
			rng := rand.New(rand.NewSource(2))
			vp := liveRandVP(rng, 1)
			lv, err := NewLive(vp, tc.family, tc.kind, p, B, tc.q, nil)
			if err != nil {
				t.Fatalf("family %d: %v", tc.family, err)
			}
			cur := vp.Clone()
			for step := 0; step < 4; step++ {
				it := liveRandItem(rng)
				if step%2 == 0 {
					cur.Items = append(cur.Items, it.Clone())
					cur.N = len(cur.Items)
					if err := lv.Append([]pdata.ItemPDF{it}); err != nil {
						t.Fatal(err)
					}
				} else {
					i := rng.Intn(cur.N)
					cur.Items[i] = it.Clone()
					if err := lv.Update(i, it); err != nil {
						t.Fatal(err)
					}
				}
				sw := freshSweep(t, cur, tc.family, tc.kind, p, B, tc.q, nil)
				assertLiveMatchesSweep(t, lv, sw, "small")
			}
		}
	}
}
