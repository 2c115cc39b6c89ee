package query

import (
	"math"
	"math/rand"
	"testing"

	"probsyn/internal/hist"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
	"probsyn/internal/shard"
)

// Build per-shard histograms over slices of one dataset and check the
// composite querier agrees with a histogram over the whole data at
// every point and range.
func TestShardedQuerierMatchesDirectEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vp := ptest.RandomValuePDF(rng, 29, 3)
	const k = 3
	bounds := shard.Bounds(vp.N, k)
	pieces := make([]Querier, k)
	hists := make([]*hist.Histogram, k)
	for s := 0; s < k; s++ {
		svp := &pdata.ValuePDF{N: bounds[s+1] - bounds[s], Items: vp.Items[bounds[s]:bounds[s+1]]}
		h, err := hist.OptimalPool(hist.NewSSEValue(svp), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		hists[s] = h
		pieces[s] = Compile(h)
	}
	q, err := NewSharded(pieces)
	if err != nil {
		t.Fatal(err)
	}
	if q.Domain() != vp.N {
		t.Fatalf("Domain() = %d, want %d", q.Domain(), vp.N)
	}
	for i := 0; i < vp.N; i++ {
		s := 0
		for bounds[s+1] <= i {
			s++
		}
		if got, want := q.Estimate(i), hists[s].Estimate(i-bounds[s]); got != want {
			t.Fatalf("Estimate(%d) = %v, piece says %v", i, got, want)
		}
	}
	for _, r := range [][2]int{{0, 28}, {0, 0}, {9, 10}, {5, 23}, {-4, 100}, {28, 28}} {
		var want float64
		for i := max(r[0], 0); i <= min(r[1], vp.N-1); i++ {
			want += q.Estimate(i)
		}
		if got := q.RangeSum(r[0], r[1]); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("RangeSum(%d, %d) = %v, pointwise %v", r[0], r[1], got, want)
		}
	}
	if got := q.RangeSum(7, 3); got != 0 {
		t.Fatalf("empty range sums to %v", got)
	}
}

func TestShardedQuerierRejectsBadInputs(t *testing.T) {
	if _, err := NewSharded(nil); err == nil {
		t.Fatal("no pieces accepted")
	}
	whole := Compile(&hist.Histogram{N: 4, Buckets: []hist.Bucket{{Start: 0, End: 3, Rep: 1}}})
	if _, err := NewSharded([]Querier{whole, nil}); err == nil {
		t.Fatal("nil piece accepted")
	}
	if _, err := NewSharded([]Querier{whole, &HistogramQuerier{}}); err == nil {
		t.Fatal("empty piece accepted")
	}
}
