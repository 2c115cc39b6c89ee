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
	"probsyn/internal/shard"
)

func randomValuePDF(n int, seed int64) *probsyn.ValuePDF {
	return ptest.RandomValuePDF(rand.New(rand.NewSource(seed)), n, 3)
}

// A sharded SSE or SSE-fixed wavelet build is the unsharded greedy: at any
// k, budget and parallelism BuildSharded produces a synopsis byte-identical
// (through the codec, expected SSE included) to Build, with a zero bound.
func TestBuildShardsSSEWaveletBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{8, 32, 48} { // 48 exercises pad-to-64
		src := ptest.RandomValuePDF(rng, n, 3)
		for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SSEFixed} {
			for _, B := range []int{0, 1, 5, 16, n} {
				want, err := probsyn.Build(src, m, B, probsyn.WithWavelet())
				if err != nil {
					t.Fatal(err)
				}
				wantBytes, err := probsyn.MarshalSynopsis(want)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 2, 4, 8} {
					for _, par := range []int{1, runtime.NumCPU()} {
						got, err := probsyn.BuildSharded(src, m, B, k,
							probsyn.WithWavelet(), probsyn.WithParallelism(par))
						if err != nil {
							t.Fatalf("n=%d %v B=%d k=%d: %v", n, m, B, k, err)
						}
						gotBytes, err := probsyn.MarshalSynopsis(got.Synopsis)
						if err != nil {
							t.Fatal(err)
						}
						if got.Bound != 0 || !bytes.Equal(gotBytes, wantBytes) {
							t.Fatalf("n=%d %v B=%d k=%d parallelism=%d: sharded SSE wavelet differs from unsharded build (bound %v)",
								n, m, B, k, par, got.Bound)
						}
					}
				}
			}
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
			// A sharded SSEFixed wavelet build is the unsharded greedy.
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

// A quantized wavelet DP is not sharded: at k >= 2 BuildSharded refuses
// WithQuantize (an unsharded build on a finer grid costs about the same
// time for a lower cost and a tighter bound), and k = 1 stays the plain
// quantized build, carrying its own DP's bound.
func TestBuildShardedRefusesQuantizedMerge(t *testing.T) {
	src := randomValuePDF(64, 23)
	for _, m := range []probsyn.Metric{probsyn.SAE, probsyn.SSEFixed} {
		t.Run(m.String(), func(t *testing.T) {
			opts := []probsyn.BuildOption{probsyn.WithWavelet(), probsyn.WithQuantize(4)}
			for _, k := range []int{2, 4, 8} {
				if res, err := probsyn.BuildSharded(src, m, 12, k, opts...); err == nil {
					t.Fatalf("k=%d: quantized sharded build accepted (bound %v)", k, res.Bound)
				}
			}
			want, err := probsyn.Build(src, m, 12, opts...)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := probsyn.BuildSweep(src, m, 12, opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := probsyn.BuildSharded(src, m, 12, 1, opts...)
			if err != nil {
				t.Fatalf("k=1: %v", err)
			}
			a, _ := probsyn.MarshalSynopsis(want)
			b, _ := probsyn.MarshalSynopsis(got.Synopsis)
			if !bytes.Equal(a, b) {
				t.Fatal("k=1: quantized BuildSharded differs from Build")
			}
			if got.Bound != probsyn.ApproxBound(fr) || got.Bound <= 0 {
				t.Fatalf("k=1: Bound %v, the quantized DP's own bound is %v", got.Bound, probsyn.ApproxBound(fr))
			}
		})
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
	wavelet := probsyn.WithWavelet()
	cases := []struct {
		name string
		m    probsyn.Metric
		B, k int
		opts []probsyn.BuildOption
	}{
		{"wavelet-k-not-pow2", probsyn.SAE, 8, 3, []probsyn.BuildOption{wavelet}},
		{"wavelet-B-below-k", probsyn.SAE, 2, 4, []probsyn.BuildOption{wavelet}},
		{"k-zero", probsyn.SSE, 8, 0, nil},
		{"eps", probsyn.SSE, 8, 2, []probsyn.BuildOption{probsyn.WithEps(0.1)}},
		{"unrestricted", probsyn.SAE, 8, 2, []probsyn.BuildOption{wavelet, probsyn.WithUnrestricted(2)}},
		{"hist-k-above-n", probsyn.SSE, 8, 32, nil},
		{"sse-wavelet-k-not-pow2", probsyn.SSE, 4, 3, []probsyn.BuildOption{wavelet}},
		{"sse-wavelet-k-above-padded-n", probsyn.SSE, 4, 32, []probsyn.BuildOption{wavelet}},
		{"sse-wavelet-negative-B", probsyn.SSE, -1, 2, []probsyn.BuildOption{wavelet}},
		{"ssefixed-wavelet-k-not-pow2", probsyn.SSEFixed, 4, 3, []probsyn.BuildOption{wavelet}},
		{"ssefixed-wavelet-k-above-padded-n", probsyn.SSEFixed, 4, 32, []probsyn.BuildOption{wavelet}},
		{"ssefixed-wavelet-negative-B", probsyn.SSEFixed, -1, 2, []probsyn.BuildOption{wavelet}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if res, err := probsyn.BuildSharded(src, tc.m, tc.B, tc.k, tc.opts...); err == nil {
				t.Fatalf("%v B=%d k=%d accepted (bound %v)", tc.m, tc.B, tc.k, res.Bound)
			}
		})
	}
	// The padded domain is what bounds k: 12 items pad to 16.
	if _, err := probsyn.BuildSharded(randomValuePDF(12, 43), probsyn.SSE, 4, 16, wavelet); err != nil {
		t.Fatalf("k = padded n rejected: %v", err)
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
	bounds := shard.Bounds(n, k)
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
