package probsyn_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"probsyn"
	"probsyn/internal/engine"
	"probsyn/internal/hist"
	"probsyn/internal/ptest"
	"probsyn/internal/shard"
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
	return oracleTruth(o)
}

// oracleTruth prices a histogram's buckets with o.
func oracleTruth(o hist.Oracle) func(probsyn.Synopsis) float64 {
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

// TestShardedHistWithinBoundOfOptimum holds sharded histograms to
// [OPT, OPT + Bound] at their exact cost, on random items and on the
// shapes a split is likeliest to get wrong: a spike on the first item of
// a shard, all-equal items, width-one shards (k = n), zero-mass items,
// and workload weights, positive or zero over a whole shard and here and
// there elsewhere.
func TestShardedHistWithinBoundOfOptimum(t *testing.T) {
	const n = 24
	p := probsyn.Params{C: 0.5}
	rng := rand.New(rand.NewSource(61))
	random := ptest.RandomValuePDF(rng, 26, 3)
	equal := &probsyn.ValuePDF{N: n, Items: make([]probsyn.ItemPDF, n)}
	for i := range equal.Items {
		equal.Items[i].Entries = []probsyn.FreqProb{{Freq: 1, Prob: 0.5}, {Freq: 3, Prob: 0.25}}
	}
	zeroMass := ptest.RandomValuePDF(rng, n, 3)
	for i := range zeroMass.Items {
		if i%3 != 1 {
			zeroMass.Items[i].Entries = nil
		}
	}
	// spike is all-equal items but for one certain large frequency on the
	// first item of shard 1 of a k-way split.
	spike := func(k int) *probsyn.ValuePDF {
		vp := equal.Clone()
		vp.Items[shard.Bounds(n, k)[1]].Entries = []probsyn.FreqProb{{Freq: 1000, Prob: 1}}
		return vp
	}
	narrow := ptest.RandomValuePDF(rng, 8, 3)
	for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SSRE, probsyn.SAE, probsyn.MAE} {
		for _, tc := range []struct {
			name string
			src  func(k int) *probsyn.ValuePDF
			ks   []int
		}{
			{"random", func(int) *probsyn.ValuePDF { return random }, []int{2, 3, 4}},
			{"spike-on-boundary", spike, []int{2, 3, 4}},
			{"all-equal", func(int) *probsyn.ValuePDF { return equal }, []int{2, 3, 4}},
			{"width-one", func(int) *probsyn.ValuePDF { return narrow }, []int{8}},
			{"zero-mass", func(int) *probsyn.ValuePDF { return zeroMass }, []int{2, 3, 4}},
		} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, m), func(t *testing.T) {
				for _, k := range tc.ks {
					src := tc.src(k)
					truth := histTruth(t, src, m, p)
					for _, B := range []int{k, max(6, k+2), 12} {
						shardedAgainstOptimum(t, src, m, B, k, truth, probsyn.WithParams(p))
					}
				}
			})
		}
	}
	// Workload weights shard by slicing: positive ones, and ones that are
	// zero over shard 0 of every split and on every fifth item beyond it.
	weighted := ptest.RandomValuePDF(rng, n, 3)
	positive, zeros := make([]float64, n), make([]float64, n)
	for i := range positive {
		positive[i] = 1 + rng.Float64()
		if i >= n/2 && i%5 != 0 {
			zeros[i] = positive[i]
		}
	}
	// They price SSE-fixed's objective alone: SSE is refused, naming it.
	for name, weights := range map[string][]float64{"weights": positive, "zero-weights": zeros} {
		o, err := hist.NewWorkloadSSE(weighted, weights)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SSEFixed} {
			t.Run(fmt.Sprintf("%s/%v", name, m), func(t *testing.T) {
				for _, k := range []int{2, 3, 4} {
					for _, B := range []int{k, 6, 12} {
						if m == probsyn.SSEFixed {
							shardedAgainstOptimum(t, weighted, m, B, k, oracleTruth(o), probsyn.WithWorkloadWeights(weights))
						} else if _, err := probsyn.BuildSharded(weighted, m, B, k, probsyn.WithWorkloadWeights(weights)); err == nil || !strings.Contains(err.Error(), "SSE-fixed") {
							t.Errorf("k=%d B=%d: weighted SSE: err %v, want a refusal naming SSE-fixed", k, B, err)
						}
					}
				}
			})
		}
	}
}

// Fan width, pool workers and shard completion order cannot change a bit
// of a sharded histogram, width-one shards included.
func TestShardedHistDeterministic(t *testing.T) {
	t.Run("n=40/SSE/k=4", func(t *testing.T) {
		vp := ptest.RandomValuePDF(rand.New(rand.NewSource(67)), 40, 3)
		shardedSame(t, vp, probsyn.SSE, 9, 4, fanPools())
	})
	narrow := randomValuePDF(6, 76)
	for _, m := range []probsyn.Metric{probsyn.SAE, probsyn.MAE, probsyn.SSRE} {
		t.Run(fmt.Sprintf("width-one/%v", m), func(t *testing.T) {
			for _, B := range []int{6, 8} {
				shardedSame(t, narrow, m, B, 6, fanPools(), probsyn.WithParams(probsyn.Params{C: 0.5}))
			}
		})
	}
}

// A wavelet is never sharded: BuildSharded refuses WithWavelet at every
// metric and every k, k = 1 and a quantized grid included, and the error
// names WithQuantize, the path that builds it past the exact DP's reach.
func TestBuildShardedRefusesWavelets(t *testing.T) {
	src := randomValuePDF(64, 23)
	for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SSEFixed, probsyn.SSRE, probsyn.SAE, probsyn.SARE, probsyn.MAE, probsyn.MARE} {
		t.Run(m.String(), func(t *testing.T) {
			for _, k := range []int{1, 2, 3, 4, 8} {
				for _, opts := range [][]probsyn.BuildOption{
					{probsyn.WithWavelet()},
					{probsyn.WithWavelet(), probsyn.WithQuantize(4)},
					{probsyn.WithWavelet(), probsyn.WithParallelism(0)},
				} {
					res, err := probsyn.BuildSharded(src, m, 12, k, opts...)
					if err == nil {
						t.Fatalf("k=%d: sharded wavelet accepted (bound %v)", k, res.Bound)
					}
					if !strings.Contains(err.Error(), "WithQuantize") {
						t.Fatalf("k=%d: error %q does not name WithQuantize", k, err)
					}
				}
			}
		})
	}
}

// A sharded build is one build: a k-way build takes one admission token,
// however many shards it fans and however many tokens the pool has free.
func TestBuildShardedTakesOneToken(t *testing.T) {
	src := randomValuePDF(32, 37)
	pool := engine.New(engine.Options{Workers: 4, Grain: 1, MaxBuilds: 4})
	for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SAE} {
		if _, err := probsyn.BuildSharded(src, m, 8, 4, probsyn.WithPool(pool)); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if peak := pool.PeakInFlight(); peak != 1 {
			t.Fatalf("%v: a 4-way sharded build took %d of 4 build tokens, want 1", m, peak)
		}
		if in := pool.InFlight(); in != 0 {
			t.Fatalf("%v: %d tokens still held after the build", m, in)
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
	cases := []probsyn.Metric{probsyn.SSE, probsyn.SAE}
	type result struct {
		blob  []byte
		bound uint64
	}
	build := func(c int, pool *engine.Pool) (result, error) {
		res, err := probsyn.BuildSharded(src, cases[c%len(cases)], 8, 4, probsyn.WithPool(pool))
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
			t.Fatalf("caller %d (%v): bytes or bound differ from the build run alone", c, cases[c%len(cases)])
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
	cases := []struct {
		name string
		m    probsyn.Metric
		B, k int
		opts []probsyn.BuildOption
	}{
		{"B-below-k", probsyn.SSE, 2, 3, nil},
		{"negative-B", probsyn.SAE, -1, 2, nil},
		{"k-zero", probsyn.SSE, 8, 0, nil},
		{"k-above-n", probsyn.SSE, 8, 32, nil},
		{"eps", probsyn.SSE, 8, 2, []probsyn.BuildOption{probsyn.WithEps(0.1)}},
		{"weights-length", probsyn.SSE, 8, 2, []probsyn.BuildOption{probsyn.WithWorkloadWeights(make([]float64, 15))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if res, err := probsyn.BuildSharded(src, tc.m, tc.B, tc.k, tc.opts...); err == nil {
				t.Fatalf("%v B=%d k=%d accepted (bound %v)", tc.m, tc.B, tc.k, res.Bound)
			}
		})
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
