package wavelet_test

import (
	"math"
	"math/rand"
	"testing"

	"probsyn/internal/engine"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
	"probsyn/internal/wavelet"
)

// buildUnrestricted is the unrestricted family's single-budget build: its
// sweep at budget B extracted at B, with the synopsis's cost.
func buildUnrestricted(src pdata.Source, kind metric.Kind, p metric.Params, B, q int, pool *engine.Pool) (*wavelet.Synopsis, float64, error) {
	sw, err := wavelet.NewSweep(src, wavelet.UnrestrictedFamily, kind, p, B, q, pool)
	if err != nil {
		return nil, 0, err
	}
	syn, err := sw.Synopsis(sw.Bmax())
	if err != nil {
		return nil, 0, err
	}
	return syn, syn.Cost, nil
}

// With q=0 the candidate grid is exactly {mu_j}, so the unrestricted DP
// must coincide with the restricted DP.
func TestUnrestrictedQZeroEqualsRestricted(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	p := metric.Params{C: 0.5}
	for trial := 0; trial < 6; trial++ {
		src := ptest.RandomValuePDF(rng, 8, 3)
		for _, k := range []metric.Kind{metric.SAE, metric.MAE} {
			for B := 0; B <= 3; B++ {
				_, restricted, err := wavelet.BuildRestrictedPool(src, k, p, B, nil)
				if err != nil {
					t.Fatal(err)
				}
				_, unrestricted, err := buildUnrestricted(src, k, p, B, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(unrestricted-restricted) > 1e-8*(1+restricted) {
					t.Fatalf("%v trial %d B=%d: q=0 unrestricted %v != restricted %v",
						k, trial, B, unrestricted, restricted)
				}
			}
		}
	}
}

// The expected values are always candidates, so the unrestricted optimum
// can never be worse than the restricted one.
func TestUnrestrictedNeverWorseThanRestricted(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	p := metric.Params{C: 0.5}
	for trial := 0; trial < 6; trial++ {
		src := ptest.RandomValuePDF(rng, 8, 3)
		for _, k := range []metric.Kind{metric.SAE, metric.SARE} {
			for B := 1; B <= 3; B++ {
				_, restricted, err := wavelet.BuildRestrictedPool(src, k, p, B, nil)
				if err != nil {
					t.Fatal(err)
				}
				_, unrestricted, err := buildUnrestricted(src, k, p, B, 3, nil)
				if err != nil {
					t.Fatal(err)
				}
				if unrestricted > restricted+1e-8*(1+restricted) {
					t.Fatalf("%v trial %d B=%d: unrestricted %v worse than restricted %v",
						k, trial, B, unrestricted, restricted)
				}
			}
		}
	}
}

// The restricted solution can be strictly suboptimal (§2.2: "this
// restriction can lead to sub-optimal synopses for non-SSE error"); the
// unrestricted DP must find a strictly better synopsis on a witness input.
func TestUnrestrictedBeatsRestrictedOnWitness(t *testing.T) {
	// One certain item with a large frequency, three at zero: with B=1
	// under SAE the restricted DP must use a coefficient of the expected
	// transform, while a free value can do better by targeting the
	// median-optimal representative for the skewed support.
	src := &pdata.ValuePDF{N: 4, Items: []pdata.ItemPDF{
		{Entries: []pdata.FreqProb{{Freq: 8, Prob: 0.5}, {Freq: 2, Prob: 0.5}}},
		{Entries: []pdata.FreqProb{{Freq: 1, Prob: 1}}},
		{Entries: []pdata.FreqProb{{Freq: 1, Prob: 1}}},
		{Entries: []pdata.FreqProb{{Freq: 1, Prob: 1}}},
	}}
	p := metric.Params{C: 0.5}
	_, restricted, err := wavelet.BuildRestrictedPool(src, metric.SAE, p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, unrestricted, err := buildUnrestricted(src, metric.SAE, p, 1, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unrestricted >= restricted-1e-9 {
		t.Fatalf("unrestricted %v should strictly beat restricted %v on witness", unrestricted, restricted)
	}
}

// DP result must equal the error of the synopsis it returns.
func TestUnrestrictedSelfConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	p := metric.Params{C: 0.5}
	for trial := 0; trial < 5; trial++ {
		src := ptest.RandomValuePDF(rng, 8, 3)
		for _, k := range []metric.Kind{metric.SAE, metric.MAE} {
			pe, err := wavelet.NewPointErrors(src, k, p)
			if err != nil {
				t.Fatal(err)
			}
			syn, got, err := buildUnrestricted(src, k, p, 2, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := syn.Validate(); err != nil {
				t.Fatal(err)
			}
			if syn.B() > 2 {
				t.Fatalf("%v: retained %d > budget", k, syn.B())
			}
			if direct := pe.SynopsisError(syn); math.Abs(direct-got) > 1e-8*(1+got) {
				t.Fatalf("%v trial %d: DP reports %v, synopsis evaluates to %v", k, trial, got, direct)
			}
		}
	}
}

func TestUnrestrictedMonotoneInBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	src := ptest.RandomValuePDF(rng, 8, 3)
	p := metric.Params{C: 0.5}
	prev := math.Inf(1)
	for B := 0; B <= 6; B++ {
		_, got, err := buildUnrestricted(src, metric.SAE, p, B, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got > prev+1e-9 {
			t.Fatalf("B=%d: error %v above previous %v", B, got, prev)
		}
		prev = got
	}
}

func TestUnrestrictedTinyDomain(t *testing.T) {
	src := pdata.Deterministic([]float64{5})
	syn, cost, err := buildUnrestricted(src, metric.SAE, metric.Params{C: 1}, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cost > 1e-9 || syn.B() != 1 {
		t.Fatalf("n=1: cost %v, B %d", cost, syn.B())
	}
}

func TestUnrestrictedArgumentErrors(t *testing.T) {
	src := pdata.Deterministic([]float64{1})
	if _, _, err := buildUnrestricted(src, metric.SAE, metric.Params{}, -1, 1, nil); err == nil {
		t.Error("negative budget accepted")
	}
	if _, _, err := buildUnrestricted(src, metric.SAE, metric.Params{}, 1, -1, nil); err == nil {
		t.Error("negative quantization accepted")
	}
	if _, _, err := buildUnrestricted(src, metric.SSE, metric.Params{}, 1, 1, nil); err == nil {
		t.Error("clairvoyant SSE accepted")
	}
}
