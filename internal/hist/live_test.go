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
	// A rejected mutation must leave the table as it was.
	if got := live.Domain(); got != 8 {
		t.Fatalf("domain %d after rejected mutations, want 8", got)
	}
}

// TestLiveDPBudgetUnclamps: a budget clamped by a small initial domain
// grows with the domain, exactly as a fresh DP over the grown data would.
// The cases put the growth on the tile grid's edges: within the first
// block, across the block boundary at 8, from exactly a block, and by more
// than a block with levels appearing in a second band.
func TestLiveDPBudgetUnclamps(t *testing.T) {
	mk := func(v *pdata.ValuePDF) (Oracle, error) { return NewOracle(v, metric.SSE, metric.Params{}) }
	for _, tc := range []struct{ n, B, grow int }{{3, 6, 4}, {7, 12, 3}, {8, 9, 1}, {5, 20, 12}} {
		for _, workers := range []int{1, 3} {
			rng := rand.New(rand.NewSource(11))
			vp := liveRandVP(rng, tc.n)
			live, err := NewLiveDP(vp, mk, tc.B, engine.New(engine.Options{Workers: workers}))
			if err != nil {
				t.Fatal(err)
			}
			if got := live.Table().Bmax(); got != tc.n {
				t.Fatalf("n=%d B=%d: initial Bmax %d, want %d (clamped)", tc.n, tc.B, got, tc.n)
			}
			cur := vp.Clone()
			var items []pdata.ItemPDF
			for i := 0; i < tc.grow; i++ {
				it := liveRandItem(rng)
				items = append(items, it)
				cur.Items = append(cur.Items, it.Clone())
			}
			cur.N = len(cur.Items)
			if err := live.Append(items); err != nil {
				t.Fatal(err)
			}
			if got, want := live.Table().Bmax(), min(tc.B, cur.N); got != want {
				t.Fatalf("n=%d B=%d +%d: post-append Bmax %d, want %d", tc.n, tc.B, tc.grow, got, want)
			}
			o, err := mk(cur)
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, denseTable(o, tc.B), live.Table())
		}
	}
}

// TestResumeTileEdges: a resume tiles the suffix it recomputes from its
// own start, so the start is put on every edge — 0, 1, one short of a
// block, a block, one past it, a non-multiple, the last end and the no-op
// start n — on every tile shape; the resumed table must equal a dense
// build over the mutated data.
func TestResumeTileEdges(t *testing.T) {
	const n, B = 21, 11
	mk := func(v *pdata.ValuePDF) Oracle {
		o, err := NewOracle(v, metric.SAE, metric.Params{C: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, ts := range tileShapes {
		for _, workers := range []int{1, 2, 5} {
			pool := engine.New(engine.Options{Workers: workers})
			rng := rand.New(rand.NewSource(29))
			vp := liveRandVP(rng, n)
			tab, err := runDP(mk(vp), B, pool, ts)
			if err != nil {
				t.Fatal(err)
			}
			for _, from := range []int{0, 1, 7, 8, 9, 13, n - 1, n} {
				if from < n {
					vp.Items[from] = liveRandItem(rng)
				}
				o := mk(vp)
				if err := tab.resume(o, from, B, pool, ts); err != nil {
					t.Fatalf("tiles=%v workers=%d from=%d: %v", ts, workers, from, err)
				}
				tablesIdentical(t, denseTable(o, B), tab)
			}
		}
	}
}
