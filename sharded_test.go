package probsyn_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"probsyn"
	"probsyn/internal/engine"
	"probsyn/internal/hist"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
	"probsyn/internal/shard"
	"probsyn/internal/wavelet"
)

func randomValuePDF(n int, seed int64) *probsyn.ValuePDF {
	return ptest.RandomValuePDF(rand.New(rand.NewSource(seed)), n, 3)
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// shardedAgainstOptimum builds src sharded k ways and holds the result to
// the unsharded optimum, OPT <= cost <= OPT + Bound with at most B terms,
// and to truth, the merged synopsis's exact expected error: the cost the
// allocation reports must be it, so a shard placed in the wrong slot of
// the merge cannot pass.
func shardedAgainstOptimum(t *testing.T, src probsyn.Source, m probsyn.Metric, B, k int, truth func(probsyn.Synopsis) float64, opts ...probsyn.BuildOption) {
	t.Helper()
	res, err := probsyn.BuildSharded(src, m, B, k, opts...)
	if err != nil {
		t.Fatalf("%v B=%d k=%d: %v", m, B, k, err)
	}
	if err := res.Synopsis.(interface{ Validate() error }).Validate(); err != nil {
		t.Fatalf("%v B=%d k=%d: merged synopsis invalid: %v", m, B, k, err)
	}
	if got := res.Synopsis.Terms(); got > B {
		t.Fatalf("%v B=%d k=%d: merged synopsis has %d terms", m, B, k, got)
	}
	opt, err := probsyn.Build(src, m, B, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cost, best := res.Synopsis.ErrorCost(), opt.ErrorCost()
	if cost < best && !relClose(cost, best) {
		t.Fatalf("%v B=%d k=%d: sharded cost %v below optimum %v", m, B, k, cost, best)
	}
	if cost > best+res.Bound && !relClose(cost, best+res.Bound) {
		t.Fatalf("%v B=%d k=%d: sharded cost %v exceeds optimum %v + bound %v", m, B, k, cost, best, res.Bound)
	}
	if want := truth(res.Synopsis); !relClose(cost, want) {
		t.Fatalf("%v B=%d k=%d: merged cost %v but exact evaluation %v", m, B, k, cost, want)
	}
}

// histTruth prices a histogram's buckets with the unsharded oracle.
func histTruth(t *testing.T, src probsyn.Source, m probsyn.Metric, p probsyn.Params) func(probsyn.Synopsis) float64 {
	t.Helper()
	o, err := hist.NewOracle(src, m, p)
	if err != nil {
		t.Fatal(err)
	}
	return func(syn probsyn.Synopsis) float64 {
		var total float64
		for _, b := range syn.(*probsyn.Histogram).Buckets {
			if c, _ := o.Cost(b.Start, b.End); o.Combine() == hist.Sum {
				total += c
			} else {
				total = max(total, c)
			}
		}
		return total
	}
}

// waveletTruth evaluates a wavelet synopsis's expected error over vp padded
// to a power of two with certain-zero items.
func waveletTruth(t *testing.T, vp *probsyn.ValuePDF, m probsyn.Metric, p probsyn.Params) func(probsyn.Synopsis) float64 {
	t.Helper()
	padded := &pdata.ValuePDF{N: vp.N, Items: slices.Clone(vp.Items)}
	for ; padded.N&(padded.N-1) != 0; padded.N++ {
		padded.Items = append(padded.Items, pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 0, Prob: 1}}})
	}
	pe, err := wavelet.NewPointErrors(padded, m, p)
	if err != nil {
		t.Fatal(err)
	}
	return func(syn probsyn.Synopsis) float64 { return pe.SynopsisError(syn.(*probsyn.WaveletSynopsis)) }
}

// shardedSame builds src sharded k ways on every pool and requires the
// codec bytes and the Bound bits the first pool's build has.
func shardedSame(t *testing.T, src probsyn.Source, m probsyn.Metric, B, k int, pools []*engine.Pool, opts ...probsyn.BuildOption) {
	t.Helper()
	var want []byte
	var wantBound uint64
	for i, pool := range pools {
		res, err := probsyn.BuildSharded(src, m, B, k, append(slices.Clone(opts), probsyn.WithPool(pool))...)
		if err != nil {
			t.Fatalf("%v B=%d k=%d: %v", m, B, k, err)
		}
		blob, err := probsyn.MarshalSynopsis(res.Synopsis)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want, wantBound = blob, math.Float64bits(res.Bound)
		} else if !bytes.Equal(blob, want) || math.Float64bits(res.Bound) != wantBound {
			t.Fatalf("%v B=%d k=%d: workers=%d max-builds=%d: bytes or bound differ from workers=%d max-builds=%d",
				m, B, k, pool.Workers(), pool.MaxBuilds(), pools[0].Workers(), pools[0].MaxBuilds())
		}
	}
}

// fanPools varies what sets a sharded build's fan width, min(k, Workers):
// worker counts 1, 2, 4 and NumCPU at Grain 1, so each shard's DP also
// fans out when the width is one, plus one MaxBuilds: 1 pool, which a
// sharded build, taking one token, runs on like any other. The first pool
// is serial.
func fanPools() []*engine.Pool {
	var pools []*engine.Pool
	for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
		pools = append(pools, engine.New(engine.Options{Workers: workers, Grain: 1}))
	}
	return append(pools, engine.New(engine.Options{Workers: 2, Grain: 1, MaxBuilds: 1}))
}

func TestShardedHistWithinBoundOfOptimum(t *testing.T) {
	vp := ptest.RandomValuePDF(rand.New(rand.NewSource(61)), 26, 3)
	p := probsyn.Params{C: 0.5}
	for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SAE, probsyn.MAE} {
		truth := histTruth(t, vp, m, p)
		for _, k := range []int{2, 3, 4} {
			for _, B := range []int{k, 6, 12} {
				shardedAgainstOptimum(t, vp, m, B, k, truth, probsyn.WithParams(p))
			}
		}
	}
}

// Fan width, pool workers and shard completion order cannot change a bit
// of a sharded histogram.
func TestShardedHistDeterministic(t *testing.T) {
	vp := ptest.RandomValuePDF(rand.New(rand.NewSource(67)), 40, 3)
	shardedSame(t, vp, probsyn.SSE, 9, 4, fanPools())
}

func TestShardedRestrictedWithinBoundOfOptimum(t *testing.T) {
	src := ptest.RandomValuePDF(rand.New(rand.NewSource(53)), 32, 3)
	p := probsyn.Params{C: 0.5}
	pool := engine.New(engine.Options{Workers: 2, Grain: 1})
	for _, m := range []probsyn.Metric{probsyn.SAE, probsyn.SSRE, probsyn.MAE} {
		truth := waveletTruth(t, src, m, p)
		for _, k := range []int{2, 4} {
			for _, B := range []int{k, 8, 16} {
				shardedAgainstOptimum(t, src, m, B, k, truth,
					probsyn.WithWavelet(), probsyn.WithParams(p), probsyn.WithPool(pool))
			}
		}
	}
}

// Fan width, pool workers and (by slot-indexed merging) shard completion
// order cannot change a bit of a sharded restricted wavelet.
func TestShardedRestrictedDeterministic(t *testing.T) {
	src := ptest.RandomValuePDF(rand.New(rand.NewSource(7)), 64, 3)
	shardedSame(t, src, probsyn.SAE, 12, 4, fanPools(),
		probsyn.WithWavelet(), probsyn.WithParams(probsyn.Params{C: 0.5}))
}

// The cost a sharded restricted build reports is the true expected error
// of the synopsis it merged, for every restricted DP metric a sharded
// build runs (SSE-fixed shards as the greedy,
// TestBuildShardsSSEWaveletBitIdentical).
func TestShardedRestrictedMergedCostIsExact(t *testing.T) {
	p := probsyn.Params{C: 0.5}
	for _, m := range []probsyn.Metric{probsyn.SSRE, probsyn.SAE, probsyn.SARE, probsyn.MAE, probsyn.MARE} {
		t.Run(m.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for _, n := range []int{16, 32, 64} {
				src := ptest.RandomValuePDF(rng, n, 3)
				truth := waveletTruth(t, src, m, p)
				for _, k := range []int{2, 4, 8} {
					for _, B := range []int{k, k + 3, 2*k + 1} {
						shardedAgainstOptimum(t, src, m, B, k, truth, probsyn.WithWavelet(), probsyn.WithParams(p))
					}
				}
			}
		})
	}
}

// Width-one shards: a histogram sharded k = n ways (every shard one item)
// and a restricted wavelet sharded k = padded n ways (every shard one
// leaf, its forced singleton) still cost within [OPT, OPT + Bound], report
// their exact expected error, and are the same bytes at any parallelism.
func TestBuildShardedWidthOneShards(t *testing.T) {
	p := probsyn.Params{C: 0.5}
	for _, n := range []int{6, 8} {
		src := randomValuePDF(n, int64(70+n))
		for _, m := range []probsyn.Metric{probsyn.SAE, probsyn.MAE, probsyn.SSRE} {
			for _, tc := range []struct {
				family string
				k      int
				truth  func(probsyn.Synopsis) float64
				opts   []probsyn.BuildOption
			}{
				{"histogram", n, histTruth(t, src, m, p), []probsyn.BuildOption{probsyn.WithParams(p)}},
				{"wavelet", 8, waveletTruth(t, src, m, p), []probsyn.BuildOption{probsyn.WithParams(p), probsyn.WithWavelet()}},
			} {
				t.Run(fmt.Sprintf("%s/n=%d/%v", tc.family, n, m), func(t *testing.T) {
					for _, B := range []int{tc.k, tc.k + 2} {
						shardedAgainstOptimum(t, src, m, B, tc.k, tc.truth, tc.opts...)
						shardedSame(t, src, m, B, tc.k, []*engine.Pool{
							engine.New(engine.Options{Workers: 1}),
							engine.New(engine.Options{Workers: runtime.NumCPU(), Grain: 1}),
						}, tc.opts...)
					}
				})
			}
		}
	}
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

// A sharded build is one build: a k-way histogram or restricted wavelet
// build takes one admission token, however many shards it fans and
// however many tokens the pool has free.
func TestBuildShardedTakesOneToken(t *testing.T) {
	src := randomValuePDF(32, 37)
	pool := engine.New(engine.Options{Workers: 4, Grain: 1, MaxBuilds: 4})
	for _, tc := range []struct {
		m    probsyn.Metric
		opts []probsyn.BuildOption
	}{
		{probsyn.SSE, nil},
		{probsyn.SAE, []probsyn.BuildOption{probsyn.WithWavelet()}},
	} {
		if _, err := probsyn.BuildSharded(src, tc.m, 8, 4, append(tc.opts, probsyn.WithPool(pool))...); err != nil {
			t.Fatalf("%v: %v", tc.m, err)
		}
		if peak := pool.PeakInFlight(); peak != 1 {
			t.Fatalf("%v: a 4-way sharded build took %d of 4 build tokens, want 1", tc.m, peak)
		}
		if in := pool.InFlight(); in != 0 {
			t.Fatalf("%v: %d tokens still held after the build", tc.m, in)
		}
	}
}

// A sharded build goes through admission like any other: on a full
// MaxBuilds: 1 pool it waits for the held token, then builds.
func TestBuildShardedWaitsForToken(t *testing.T) {
	src := randomValuePDF(32, 43)
	pool := engine.New(engine.Options{Workers: 2, Grain: 1, MaxBuilds: 1})
	release, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := probsyn.BuildSharded(src, probsyn.SSE, 8, 4, probsyn.WithPool(pool))
		done <- err
	}()
	select {
	case err := <-done:
		release()
		t.Fatalf("sharded build finished (err %v) while the only token was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sharded build still waiting after the token was released")
	}
	if peak := pool.PeakInFlight(); peak != 1 {
		t.Fatalf("PeakInFlight() = %d, want 1", peak)
	}
}

// Concurrent sharded builds on one capped pool hold one token each: all of
// them finish, never more than MaxBuilds at once, each with the bytes and
// Bound bits of the same build run alone.
func TestBuildShardedConcurrentBuildsShareCap(t *testing.T) {
	src := randomValuePDF(32, 47)
	cases := []struct {
		m    probsyn.Metric
		opts []probsyn.BuildOption
	}{
		{probsyn.SSE, nil},
		{probsyn.SAE, []probsyn.BuildOption{probsyn.WithWavelet()}},
	}
	type result struct {
		blob  []byte
		bound uint64
	}
	build := func(c int, pool *engine.Pool) (result, error) {
		tc := cases[c%len(cases)]
		res, err := probsyn.BuildSharded(src, tc.m, 8, 4, append(slices.Clone(tc.opts), probsyn.WithPool(pool))...)
		if err != nil {
			return result{}, err
		}
		blob, err := probsyn.MarshalSynopsis(res.Synopsis)
		return result{blob, math.Float64bits(res.Bound)}, err
	}
	want := make([]result, len(cases))
	for c := range cases {
		var err error
		if want[c], err = build(c, engine.Serial()); err != nil {
			t.Fatal(err)
		}
	}
	const callers = 6
	pool := engine.New(engine.Options{Workers: 2, Grain: 1, MaxBuilds: 2})
	got := make([]result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c], errs[c] = build(c, pool)
		}(c)
	}
	wg.Wait()
	for c := range got {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		if w := want[c%len(cases)]; !bytes.Equal(got[c].blob, w.blob) || got[c].bound != w.bound {
			t.Fatalf("caller %d (%v): bytes or bound differ from the build run alone", c, cases[c%len(cases)].m)
		}
	}
	if peak := pool.PeakInFlight(); peak < 1 || peak > 2 {
		t.Fatalf("PeakInFlight() = %d, want in [1, 2]", peak)
	}
	if in := pool.InFlight(); in != 0 {
		t.Fatalf("%d tokens still held after every build", in)
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
		{"wavelet-negative-B", probsyn.SAE, -1, 2, []probsyn.BuildOption{wavelet}},
		{"hist-B-below-k", probsyn.SSE, 2, 3, nil},
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
