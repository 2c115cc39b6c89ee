package wavelet_test

// Quantized restricted DP tests: the approximate build's exactly-evaluated
// cost must dominate the exact optimum and stay within the surfaced
// additive bound, converge to the exact DP as the grid refines (and match
// it bit for bit once the grid is at least as fine as the exact state
// space), stay bit-identical across worker counts, and extract
// codec-byte-identical synopses from one sweep and from independent
// builds. The large-domain test pins the headline capability: domains
// where the exact DP overflows maxTreeEntries build fine quantized, and
// the overflow error itself reports the grid size that would fit.

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"probsyn/internal/metric"
	"probsyn/internal/ptest"
	"probsyn/internal/synopsis"
	"probsyn/internal/wavelet"
)

func TestRestrictedApproxCostVsExact(t *testing.T) {
	p := metric.Params{C: 0.5}
	for _, n := range []int{64, 256} {
		for _, kind := range []metric.Kind{metric.SAE, metric.SSRE, metric.MAE} {
			rng := rand.New(rand.NewSource(int64(n)))
			vp := ptest.RandomValuePDF(rng, n, 3)
			const B = 12
			exact, err := wavelet.NewSweep(vp, wavelet.RestrictedFamily, kind, p, B, 0, nil)
			if err != nil {
				t.Fatalf("n=%d %v exact: %v", n, kind, err)
			}
			prevBound := math.Inf(1)
			for _, q := range []int{2, 4, 8, 16, 32, n} {
				sw, err := wavelet.NewSweep(vp, wavelet.RestrictedFamily, kind, p, B, q, nil)
				if err != nil {
					t.Fatalf("n=%d %v q=%d: %v", n, kind, q, err)
				}
				bound := sw.ErrorBound()
				if bound < 0 {
					t.Fatalf("n=%d %v q=%d: negative bound %v", n, kind, q, bound)
				}
				if bound > prevBound {
					t.Fatalf("n=%d %v q=%d: bound %v grew past coarser grid's %v", n, kind, q, bound, prevBound)
				}
				prevBound = bound
				for b := 1; b <= B; b++ {
					opt, got := sweepCost(t, exact, b), sweepCost(t, sw, b)
					if got < opt-1e-9*math.Abs(opt)-1e-12 {
						t.Fatalf("n=%d %v q=%d b=%d: quantized cost %v below exact optimum %v", n, kind, q, b, got, opt)
					}
					if got > opt+bound+1e-9*(math.Abs(opt)+bound)+1e-12 {
						t.Fatalf("n=%d %v q=%d b=%d: quantized cost %v exceeds optimum %v + bound %v", n, kind, q, b, got, opt, bound)
					}
				}
			}
			// A grid at least as fine as the exact state space (q >= n/2)
			// must degenerate to the exact DP: zero bound, bit-identical
			// synopses and costs.
			sw, err := wavelet.NewSweep(vp, wavelet.RestrictedFamily, kind, p, B, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sw.ErrorBound() != 0 {
				t.Fatalf("n=%d %v q=n: nonzero bound %v on degenerate-exact grid", n, kind, sw.ErrorBound())
			}
			for b := 1; b <= B; b++ {
				want, err := exact.Synopsis(b)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sw.Synopsis(b)
				if err != nil {
					t.Fatal(err)
				}
				synopsesIdentical(t, "q=n", want, got, sweepCost(t, exact, b), sweepCost(t, sw, b))
			}
		}
	}
}

func TestRestrictedApproxWorkerDeterminism(t *testing.T) {
	p := metric.Params{C: 0.5}
	rng := rand.New(rand.NewSource(7))
	vp := ptest.RandomValuePDF(rng, 300, 3) // pads to 512
	const B, q = 10, 8
	serial, sc, err := wavelet.BuildRestrictedApproxPool(vp, metric.SAE, p, B, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		syn, c, err := wavelet.BuildRestrictedApproxPool(vp, metric.SAE, p, B, q, finePool(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		synopsesIdentical(t, "approx", serial, syn, sc, c)
	}
}

func TestRestrictedApproxSweepMatchesBuilds(t *testing.T) {
	p := metric.Params{C: 0.5}
	rng := rand.New(rand.NewSource(11))
	vp := ptest.RandomValuePDF(rng, 120, 3) // pads to 128
	const B = 9
	for _, q := range []int{4, 16} {
		sw, err := wavelet.NewSweep(vp, wavelet.RestrictedFamily, metric.SARE, p, B, q, finePool(2))
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		for b := 1; b <= sw.Bmax(); b++ {
			fromSweep, err := sw.Synopsis(b)
			if err != nil {
				t.Fatal(err)
			}
			built, cost, err := wavelet.BuildRestrictedApproxPool(vp, metric.SARE, p, b, q, nil)
			if err != nil {
				t.Fatalf("q=%d b=%d: %v", q, b, err)
			}
			synopsesIdentical(t, "sweep-vs-build", built, fromSweep, cost, sweepCost(t, sw, b))
			sb, err := synopsis.Marshal(fromSweep)
			if err != nil {
				t.Fatal(err)
			}
			bb, err := synopsis.Marshal(built)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb, bb) {
				t.Fatalf("q=%d b=%d: sweep extraction not codec-byte-identical to independent build", q, b)
			}
		}
	}
}

func TestRestrictedApproxLargeDomain(t *testing.T) {
	if testing.Short() {
		t.Skip("large-domain build")
	}
	p := metric.Params{C: 0.5}
	rng := rand.New(rand.NewSource(3))
	const n = 32768 // levels = 15: the exact DP at B = 8 needs 1.085e9 table entries
	vp := ptest.RandomValuePDF(rng, n, 2)
	_, _, err := wavelet.BuildRestrictedPool(vp, metric.SAE, p, 8, nil)
	if err == nil {
		t.Fatal("exact restricted DP unexpectedly fit n=32768")
	}
	if !strings.Contains(err.Error(), "q <= 2446") {
		t.Fatalf("overflow error does not name the grid size that fits: %v", err)
	}
	if !strings.Contains(err.Error(), "1.085e+09") {
		t.Fatalf("overflow error does not report the actual entry demand: %v", err)
	}
	syn, cost, err := wavelet.BuildRestrictedApproxPool(vp, metric.SAE, p, 8, 16, finePool(0))
	if err != nil {
		t.Fatalf("quantized build at n=%d: %v", n, err)
	}
	if syn.N != n || len(syn.Indices) == 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
		t.Fatalf("quantized build at n=%d returned a degenerate synopsis (|coeffs|=%d, cost=%v)", n, len(syn.Indices), cost)
	}
}

func TestRestrictedApproxValidation(t *testing.T) {
	p := metric.Params{C: 0.5}
	rng := rand.New(rand.NewSource(9))
	vp := ptest.RandomValuePDF(rng, 16, 2)
	for _, q := range []int{-1, 0, 1} {
		// q = 0 asks NewSweep for the exact DP; the Approx build has none.
		if _, err := wavelet.NewSweep(vp, wavelet.RestrictedFamily, metric.SAE, p, 4, q, nil); err == nil && q != 0 {
			t.Fatalf("q=%d accepted, want error", q)
		}
		if _, _, err := wavelet.BuildRestrictedApproxPool(vp, metric.SAE, p, 4, q, nil); err == nil {
			t.Fatalf("q=%d accepted by build, want error", q)
		}
	}
}
