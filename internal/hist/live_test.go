package hist

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

// TestLiveDPMatchesFresh drives a live DP table through a random mutation
// sequence and checks, after every mutation, that the maintained table is
// deep-equal to a from-scratch DP over the mutated data — costs AND
// back-pointers, so extraction at any budget is forced identical too.
func TestLiveDPMatchesFresh(t *testing.T) {
	for _, k := range []metric.Kind{metric.SSE, metric.SAE, metric.MARE} {
		for _, workers := range []int{1, 3} {
			rng := rand.New(rand.NewSource(7))
			vp := liveRandVP(rng, 19)
			p := metric.Params{C: 0.5}
			mk := func(v *pdata.ValuePDF) (Oracle, error) { return NewOracle(v, k, p) }
			pool := engine.New(engine.Options{Workers: workers, Grain: 1})
			const B = 5
			live, err := NewLiveDP(vp, mk, B, pool)
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			cur := vp.Clone()
			for step := 0; step < 10; step++ {
				if rng.Intn(2) == 0 {
					items := []pdata.ItemPDF{liveRandItem(rng), liveRandItem(rng)}
					for _, it := range items {
						cur.Items = append(cur.Items, it.Clone())
					}
					cur.N = len(cur.Items)
					if err := live.Append(items); err != nil {
						t.Fatalf("%v step %d append: %v", k, step, err)
					}
				} else {
					i := rng.Intn(cur.N)
					it := liveRandItem(rng)
					cur.Items[i] = it.Clone()
					if err := live.Update(i, it); err != nil {
						t.Fatalf("%v step %d update: %v", k, step, err)
					}
				}
				o, err := mk(cur)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := RunDPPool(o, B, pool)
				if err != nil {
					t.Fatal(err)
				}
				got := live.Table()
				if got.Bmax() != fresh.Bmax() || got.n != fresh.n {
					t.Fatalf("%v step %d: shape (%d,%d) vs fresh (%d,%d)", k, step, got.Bmax(), got.n, fresh.Bmax(), fresh.n)
				}
				if !reflect.DeepEqual(got.opt, fresh.opt) {
					t.Fatalf("%v step %d: opt tables diverge", k, step)
				}
				if !reflect.DeepEqual(got.choice, fresh.choice) {
					t.Fatalf("%v step %d: choice tables diverge", k, step)
				}
				for b := 1; b <= got.Bmax(); b++ {
					gh, err := got.Histogram(b)
					if err != nil {
						t.Fatal(err)
					}
					fh, err := fresh.Histogram(b)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gh, fh) {
						t.Fatalf("%v step %d: budget-%d histograms diverge", k, step, b)
					}
				}
			}
		}
	}
}

// TestLiveDPValidation covers the mutation guard rails.
func TestLiveDPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vp := liveRandVP(rng, 8)
	mk := func(v *pdata.ValuePDF) (Oracle, error) { return NewOracle(v, metric.SSE, metric.Params{}) }
	live, err := NewLiveDP(vp, mk, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Update(8, pdata.ItemPDF{}); err == nil {
		t.Fatal("out-of-domain update accepted")
	}
	bad := pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 1, Prob: 1.5}}}
	if err := live.Update(0, bad); err == nil {
		t.Fatal("invalid pdf accepted by Update")
	}
	if err := live.Append([]pdata.ItemPDF{bad}); err == nil {
		t.Fatal("invalid pdf accepted by Append")
	}
	if err := live.Append(nil); err != nil {
		t.Fatalf("empty append: %v", err)
	}
	// A rejected mutation must leave the table untouched.
	if got := live.Domain(); got != 8 {
		t.Fatalf("domain %d after rejected mutations, want 8", got)
	}
}

// TestLiveDPBudgetUnclamps: a budget clamped by a small initial domain
// grows with the domain, exactly as a fresh DP over the grown data would.
func TestLiveDPBudgetUnclamps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vp := liveRandVP(rng, 3)
	mk := func(v *pdata.ValuePDF) (Oracle, error) { return NewOracle(v, metric.SSE, metric.Params{}) }
	live, err := NewLiveDP(vp, mk, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := live.Table().Bmax(); got != 3 {
		t.Fatalf("initial Bmax %d, want 3 (clamped)", got)
	}
	cur := vp.Clone()
	items := []pdata.ItemPDF{liveRandItem(rng), liveRandItem(rng), liveRandItem(rng), liveRandItem(rng)}
	for _, it := range items {
		cur.Items = append(cur.Items, it.Clone())
	}
	cur.N = len(cur.Items)
	if err := live.Append(items); err != nil {
		t.Fatal(err)
	}
	if got := live.Table().Bmax(); got != 6 {
		t.Fatalf("post-append Bmax %d, want 6", got)
	}
	o, err := mk(cur)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunDPPool(o, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.Table().opt, fresh.opt) {
		t.Fatal("unclamped tables diverge")
	}
}
