package hist_test

// Default builds against the dense reference, compared as the bytes a
// saved synopsis has: at serving scale (the test CI runs by name), after
// live mutations, and through the sharded merge.

import (
	"bytes"
	"math/rand"
	"testing"

	"probsyn/internal/engine"
	"probsyn/internal/gen"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
	"probsyn/internal/synopsis"
)

func encoded(t *testing.T, h *hist.Histogram, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := synopsis.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestPrunedMatchesDenseAtScale: the default build (pruned scans, swept
// columns) and the dense reference (everything scanned, absolute-error
// buckets priced one by one through the cold search) must encode to the
// same bytes. The unit suite proves table equality at n <= 512; this pins
// oracle, DP, extraction and codec at sizes where pruning takes deep cuts
// and a warm-started sweep has thousands of neighbours to drift from.
func TestPrunedMatchesDenseAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("n=8192 dense DPs take seconds")
	}
	linkage := gen.MystiQLinkage(rand.New(rand.NewSource(1)), gen.DefaultMystiQ(8192))
	sensors := gen.SensorGrid(rand.New(rand.NewSource(1)), gen.DefaultSensor(256))
	for _, tc := range []struct {
		src pdata.Source
		k   metric.Kind
		B   int
	}{
		{linkage, metric.SSRE, 32},
		{linkage, metric.SARE, 32},
		{sensors, metric.MAE, 16},
	} {
		t.Run(tc.k.String(), func(t *testing.T) {
			o, err := hist.NewOracle(tc.src, tc.k, metric.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			tab, err := hist.RunDPPool(o, tc.B, engine.New(engine.Options{}))
			if err != nil {
				t.Fatal(err)
			}
			if st := tab.Stats(); st.CandidatesScanned+st.CandidatesPruned == 0 {
				t.Fatal("default build reports no DP work")
			}
			got, gerr := tab.Histogram(tc.B)
			want, werr := hist.DenseTable(o, tc.B).Histogram(tc.B)
			if !bytes.Equal(encoded(t, got, gerr), encoded(t, want, werr)) {
				t.Fatalf("n=%d B=%d: default build's bytes differ from the dense reference's", o.N(), tc.B)
			}
		})
	}
}

// TestLivePrunedBytesMatchDenseFresh: a live table maintained with
// pruning must, after every mutation, extract at every budget the bytes a
// dense build over the mutated data extracts — stale back-pointer seeds
// and clamped monotone certificates included.
func TestLivePrunedBytesMatchDenseFresh(t *testing.T) {
	const B = 5
	p := metric.Params{C: 0.5}
	for _, k := range []metric.Kind{metric.SSE, metric.MARE} {
		rng := rand.New(rand.NewSource(99))
		cur := ptest.RandomValuePDF(rng, 17, 3)
		mk := func(v *pdata.ValuePDF) (hist.Oracle, error) { return hist.NewOracle(v, k, p) }
		live, err := hist.NewLiveDP(cur, mk, B, engine.New(engine.Options{Workers: 2, Grain: 1}))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		for step := 0; step < 6; step++ {
			item := ptest.RandomValuePDF(rng, 1, 3).Items[0]
			if i := rng.Intn(cur.N + 1); i < cur.N {
				cur.Items[i] = item
				err = live.Update(i, item)
			} else {
				cur.Items = append(cur.Items, item)
				cur.N++
				err = live.Append([]pdata.ItemPDF{item})
			}
			if err != nil {
				t.Fatalf("%v step %d: %v", k, step, err)
			}
			o, err := mk(cur)
			if err != nil {
				t.Fatal(err)
			}
			dense := hist.DenseTable(o, B)
			for b := 1; b <= B; b++ {
				got, gerr := live.Table().Histogram(b)
				want, werr := dense.Histogram(b)
				if !bytes.Equal(encoded(t, got, gerr), encoded(t, want, werr)) {
					t.Fatalf("%v step %d budget %d: live bytes differ from a dense fresh build's", k, step, b)
				}
			}
		}
	}
}

// TestShardedPrunedBytesMatchDense: a sharded build's merged histogram
// and pieces must encode to the bytes the same merge over dense per-shard
// tables gives, and its Stats must account the work of every shard.
func TestShardedPrunedBytesMatchDense(t *testing.T) {
	const B, k = 9, 3
	vp := ptest.RandomValuePDF(rand.New(rand.NewSource(29)), 40, 3)
	for _, kind := range []metric.Kind{metric.SSE, metric.SARE, metric.MAE} {
		oracles, bounds := shardedOracles(t, vp, kind, metric.Params{C: 0.5}, k)
		pruned, err := hist.BuildSharded(oracles, bounds, B, nil, k)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if pruned.Stats.CandidatesScanned+pruned.Stats.CandidatesPruned == 0 {
			t.Fatalf("%v: sharded Stats account no DP work", kind)
		}
		tables := make([]*hist.DPTable, k)
		for s, o := range oracles {
			tables[s] = hist.DenseTable(o, min(B, o.N()))
		}
		dense, err := hist.MergeSharded(tables, bounds, B)
		if err != nil {
			t.Fatalf("%v: dense merge: %v", kind, err)
		}
		if dense.Stats.CandidatesPruned != 0 {
			t.Fatalf("%v: dense reference pruned %d candidates", kind, dense.Stats.CandidatesPruned)
		}
		if !bytes.Equal(encoded(t, pruned.Merged, nil), encoded(t, dense.Merged, nil)) {
			t.Fatalf("%v: merged bytes differ between pruned and dense", kind)
		}
		for s := range pruned.Pieces {
			if !bytes.Equal(encoded(t, pruned.Pieces[s], nil), encoded(t, dense.Pieces[s], nil)) {
				t.Fatalf("%v: shard %d piece bytes differ between pruned and dense", kind, s)
			}
		}
	}
}
