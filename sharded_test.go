package probsyn_test

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"probsyn"
	"probsyn/internal/engine"
	"probsyn/internal/ptest"
)

func randomValuePDF(n int, seed int64) *probsyn.ValuePDF {
	return ptest.RandomValuePDF(rand.New(rand.NewSource(seed)), n, 3)
}

// The sharded SSE wavelet merge is exact: BuildSharded at any k must
// produce a synopsis byte-identical (through the codec) to the unsharded
// build, and say so with a zero bound.
func TestBuildShardsSSEWaveletBitIdentical(t *testing.T) {
	src := randomValuePDF(48, 3)
	want, err := probsyn.Build(src, probsyn.SSE, 9, probsyn.WithWavelet())
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := probsyn.MarshalSynopsis(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4, 8} {
		got, err := probsyn.BuildSharded(src, probsyn.SSE, 9, k,
			probsyn.WithWavelet(), probsyn.WithParallelism(runtime.NumCPU()))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		gotBytes, err := probsyn.MarshalSynopsis(got.Synopsis)
		if err != nil {
			t.Fatal(err)
		}
		if got.Bound != 0 || !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("k=%d: sharded SSE wavelet differs from unsharded build", k)
		}
	}
}

// Sharded DP families stay within the certified bound of the unsharded
// optimum, and BuildSharded surfaces that bound.
func TestBuildShardedWithinBound(t *testing.T) {
	cases := []struct {
		name string
		m    probsyn.Metric
		opts []probsyn.BuildOption
		n, k int
	}{
		{"hist-SSE", probsyn.SSE, nil, 26, 3},
		{"hist-MAE", probsyn.MAE, nil, 26, 4},
		{"wavelet-SAE", probsyn.SAE, []probsyn.BuildOption{probsyn.WithWavelet()}, 32, 4},
		{"wavelet-SSEFixed", probsyn.SSEFixed, []probsyn.BuildOption{probsyn.WithWavelet()}, 32, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := randomValuePDF(tc.n, 11)
			const B = 8
			res, err := probsyn.BuildSharded(src, tc.m, B, tc.k, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Pieces) != tc.k || len(res.Bounds) != tc.k+1 {
				t.Fatalf("%d pieces, %d bounds for k=%d", len(res.Pieces), len(res.Bounds), tc.k)
			}
			wavelet := len(tc.opts) > 0
			wantBounds := probsyn.ShardBounds(tc.n, tc.k, wavelet)
			for i, b := range res.Bounds {
				if b != wantBounds[i] {
					t.Fatalf("bounds %v, want %v", res.Bounds, wantBounds)
				}
			}
			// SSEFixed wavelet routes to the exact greedy merge.
			if tc.name == "wavelet-SSEFixed" && res.Bound != 0 {
				t.Fatalf("SSE-family sharded bound = %v, want 0", res.Bound)
			}
			opt, err := probsyn.Build(src, tc.m, B, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			tol := 1e-9 * math.Max(1, opt.ErrorCost())
			if res.Synopsis.ErrorCost() < opt.ErrorCost()-tol {
				t.Fatalf("sharded cost %v below optimum %v", res.Synopsis.ErrorCost(), opt.ErrorCost())
			}
			if res.Synopsis.ErrorCost() > opt.ErrorCost()+res.Bound+tol {
				t.Fatalf("sharded cost %v exceeds optimum %v + bound %v",
					res.Synopsis.ErrorCost(), opt.ErrorCost(), res.Bound)
			}
		})
	}
}

// Pieces must answer range sums: summing the per-shard partials over the
// shard split of a global range reproduces the merged synopsis's answer
// — the invariant the scatter/gather server path relies on.
func TestBuildShardedPiecesAnswerRangeSums(t *testing.T) {
	src := randomValuePDF(32, 17)
	for _, tc := range []struct {
		m    probsyn.Metric
		opts []probsyn.BuildOption
	}{
		{probsyn.SSE, []probsyn.BuildOption{probsyn.WithWavelet()}},
		{probsyn.SAE, []probsyn.BuildOption{probsyn.WithWavelet()}},
		{probsyn.SSE, nil},
	} {
		res, err := probsyn.BuildSharded(src, tc.m, 10, 4, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{0, 32}, {3, 29}, {7, 9}, {0, 1}, {15, 17}} {
			lo, hi := r[0], r[1]
			want := res.Synopsis.RangeSum(lo, hi)
			var got float64
			for s := 0; s+1 < len(res.Bounds); s++ {
				a, b := max(lo, res.Bounds[s]), min(hi, res.Bounds[s+1])
				if a < b {
					got += res.Pieces[s].RangeSum(a-res.Bounds[s], b-res.Bounds[s])
				}
			}
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("%v [%d,%d): gathered %v, merged %v", tc.m, lo, hi, got, want)
			}
		}
	}
}

// Quantized sharded restricted builds through the root API stay within
// the surfaced bound of the exact unsharded optimum.
func TestBuildShardedQuantizedWithinBound(t *testing.T) {
	src := randomValuePDF(64, 23)
	res, err := probsyn.BuildSharded(src, probsyn.SAE, 12, 4,
		probsyn.WithWavelet(), probsyn.WithQuantize(4))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := probsyn.Build(src, probsyn.SAE, 12, probsyn.WithWavelet())
	if err != nil {
		t.Fatal(err)
	}
	tol := 1e-9 * math.Max(1, opt.ErrorCost())
	if res.Synopsis.ErrorCost() < opt.ErrorCost()-tol {
		t.Fatalf("cost %v below optimum %v", res.Synopsis.ErrorCost(), opt.ErrorCost())
	}
	if res.Synopsis.ErrorCost() > opt.ErrorCost()+res.Bound+tol {
		t.Fatalf("cost %v exceeds optimum %v + bound %v", res.Synopsis.ErrorCost(), opt.ErrorCost(), res.Bound)
	}
}

// Bound certifies against the EXACT unsharded optimum at every k, k = 1
// included: a quantized one-shard build is an approximation too, and on
// this input the k = 4 merge (a feasible 32-term restricted synopsis)
// costs less than it. The exact optimum is at most the cheapest row.
func TestBuildShardedQuantizedBoundHoldsAtEveryK(t *testing.T) {
	src := benchLinkage(2048)
	ks := []int{1, 2, 4}
	res := make([]*probsyn.ShardedResult, len(ks))
	best := math.Inf(1)
	for i, k := range ks {
		var err error
		res[i], err = probsyn.BuildSharded(src, probsyn.SAE, 32, k, probsyn.WithWavelet(), probsyn.WithQuantize(32))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		best = math.Min(best, res[i].Synopsis.ErrorCost())
	}
	for i, k := range ks {
		if cost := res[i].Synopsis.ErrorCost(); cost > best+res[i].Bound {
			t.Errorf("k=%d: cost %v exceeds a feasible synopsis's %v by more than Bound %v", k, cost, best, res[i].Bound)
		}
	}
}

// Workload-weighted histograms shard by slicing the weights.
func TestBuildShardedWorkloadHistogram(t *testing.T) {
	src := randomValuePDF(24, 29)
	weights := make([]float64, 24)
	rng := rand.New(rand.NewSource(31))
	for i := range weights {
		weights[i] = 1 + rng.Float64()
	}
	res, err := probsyn.BuildSharded(src, probsyn.SSEFixed, 6, 3, probsyn.WithWorkloadWeights(weights))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := probsyn.Build(src, probsyn.SSEFixed, 6, probsyn.WithWorkloadWeights(weights))
	if err != nil {
		t.Fatal(err)
	}
	cost := opt.ErrorCost()
	tol := 1e-9 * math.Max(1, cost)
	if res.Synopsis.ErrorCost() < cost-tol || res.Synopsis.ErrorCost() > cost+res.Bound+tol {
		t.Fatalf("sharded workload cost %v outside [opt, opt+bound] = [%v, %v]",
			res.Synopsis.ErrorCost(), cost, cost+res.Bound)
	}
}

// A capped pool admits a sharded build with fewer tokens than shards
// (degrading the fan) rather than deadlocking, and the result is
// bit-identical to the uncapped build.
func TestBuildShardedCappedPoolDegrades(t *testing.T) {
	src := randomValuePDF(32, 37)
	want, err := probsyn.BuildSharded(src, probsyn.SAE, 8, 4, probsyn.WithWavelet())
	if err != nil {
		t.Fatal(err)
	}
	pool := engine.New(engine.Options{Workers: 2, Grain: 1, MaxBuilds: 1})
	got, err := probsyn.BuildSharded(src, probsyn.SAE, 8, 4, probsyn.WithWavelet(), probsyn.WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := probsyn.MarshalSynopsis(want.Synopsis)
	b, _ := probsyn.MarshalSynopsis(got.Synopsis)
	if !bytes.Equal(a, b) || got.Bound != want.Bound {
		t.Fatal("capped-pool sharded build differs from uncapped")
	}
}

func TestBuildShardedArgumentErrors(t *testing.T) {
	src := randomValuePDF(16, 41)
	if _, err := probsyn.BuildSharded(src, probsyn.SAE, 8, 3, probsyn.WithWavelet()); err == nil {
		t.Fatal("non-power-of-two wavelet shard count accepted")
	}
	if _, err := probsyn.BuildSharded(src, probsyn.SAE, 2, 4, probsyn.WithWavelet()); err == nil {
		t.Fatal("B < k accepted")
	}
	if _, err := probsyn.BuildSharded(src, probsyn.SSE, 8, 0); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, err := probsyn.BuildSharded(src, probsyn.SSE, 8, 2, probsyn.WithEps(0.1)); err == nil {
		t.Fatal("WithEps accepted")
	}
	if _, err := probsyn.BuildSharded(src, probsyn.SAE, 8, 2, probsyn.WithWavelet(), probsyn.WithUnrestricted(2)); err == nil {
		t.Fatal("WithUnrestricted accepted")
	}
	if _, err := probsyn.BuildSharded(src, probsyn.SSE, 8, 32); err == nil {
		t.Fatal("k > n histogram accepted")
	}
}

// TestBuildShardedFillsDPStats: the WithDPStats sink must account the
// work of all shards: every split candidate of every shard's DP is either
// scanned or pruned. (The comparison of a sharded build with the same
// merge over dense tables is internal/hist's
// TestShardedPrunedBytesMatchDense.)
func TestBuildShardedFillsDPStats(t *testing.T) {
	const n, B, k = 40, 9, 3
	src := randomValuePDF(n, 29)
	var want int64
	bounds := probsyn.ShardBounds(n, k, false)
	for s := 0; s < k; s++ {
		for e := 0; e < bounds[s+1]-bounds[s]; e++ {
			for b := 1; b < B && b <= e; b++ {
				want += int64(e - b + 1) // level b at end e reduces i in [b-1, e)
			}
		}
	}
	for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SARE, probsyn.MAE} {
		var st probsyn.DPStats
		if _, err := probsyn.BuildSharded(src, m, B, k, probsyn.WithDPStats(&st)); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got := st.CandidatesScanned + st.CandidatesPruned; got != want {
			t.Fatalf("%v: WithDPStats sink accounts %d split candidates, the %d shards have %d", m, got, k, want)
		}
	}
}
