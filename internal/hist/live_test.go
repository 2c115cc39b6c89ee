package hist

import (
	"math/rand"
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

// mustOracle builds an oracle the test cannot go on without.
func mustOracle(t *testing.T, mk func(*pdata.ValuePDF) (Oracle, error), vp *pdata.ValuePDF) Oracle {
	t.Helper()
	o, err := mk(vp)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// liveMutate applies one random mutation to vp — an append of two items
// or an in-place update — resumes live over it on pool, and returns the
// oracle over the mutated data.
func liveMutate(t *testing.T, rng *rand.Rand, live *DPTable, pool *engine.Pool, vp *pdata.ValuePDF, mk func(*pdata.ValuePDF) (Oracle, error)) Oracle {
	t.Helper()
	from := vp.N
	if rng.Intn(2) == 0 {
		vp.Items = append(vp.Items, liveRandItem(rng), liveRandItem(rng))
		vp.N = len(vp.Items)
	} else {
		from = rng.Intn(vp.N)
		vp.Items[from] = liveRandItem(rng)
	}
	o := mustOracle(t, mk, vp)
	if err := live.Resume(o, from, pool); err != nil {
		t.Fatal(err)
	}
	return o
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
			pool := engine.New(engine.Options{Workers: workers})
			live, err := RunDPPool(mustOracle(t, mk, vp), tc.B, pool)
			if err != nil {
				t.Fatal(err)
			}
			if got := live.Bmax(); got != tc.n {
				t.Fatalf("n=%d B=%d: initial Bmax %d, want %d (clamped)", tc.n, tc.B, got, tc.n)
			}
			for i := 0; i < tc.grow; i++ {
				vp.Items = append(vp.Items, liveRandItem(rng))
			}
			vp.N = len(vp.Items)
			o := mustOracle(t, mk, vp)
			if err := live.Resume(o, tc.n, pool); err != nil {
				t.Fatal(err)
			}
			if got, want := live.Bmax(), min(tc.B, vp.N); got != want {
				t.Fatalf("n=%d B=%d +%d: post-append Bmax %d, want %d", tc.n, tc.B, tc.grow, got, want)
			}
			tablesIdentical(t, denseTable(o, tc.B), live)
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
				if err := tab.resume(o, from, pool, ts); err != nil {
					t.Fatalf("tiles=%v workers=%d from=%d: %v", ts, workers, from, err)
				}
				tablesIdentical(t, denseTable(o, B), tab)
			}
		}
	}
}
