// Benchmarks regenerating every figure of the paper's evaluation (§5) at
// bench-friendly scales, plus the ablations called out in DESIGN.md. The
// cmd/experiments tool runs the same code at larger (or, with -full, the
// paper's exact) sizes and prints the series; these benches track the cost
// of each experiment and guard against performance regressions.
//
// Mapping:
//
//	BenchmarkFig2a..f   histogram error% sweeps, all methods (Figure 2)
//	BenchmarkFig3a      DP scaling in n at fixed B (Figure 3a)
//	BenchmarkFig3b      DP scaling in B at fixed n (Figure 3b)
//	BenchmarkFig4a/b    wavelet error% sweeps (Figure 4)
//	BenchmarkWavelet*Build  restricted coefficient-tree DP
//	BenchmarkAblate*    exact-vs-closed-form tuple SSE; exact-vs-approx DP
package probsyn_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"probsyn"
	"probsyn/internal/engine"
	"probsyn/internal/eval"
	"probsyn/internal/gen"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/wavelet"
)

const benchN = 512

func benchLinkage(n int) *pdata.Basic {
	return gen.MystiQLinkage(rand.New(rand.NewSource(42)), gen.DefaultMystiQ(n))
}

func benchTPCH(n int) *pdata.TuplePDF {
	return gen.TPCHLineitem(rand.New(rand.NewSource(42)), gen.DefaultTPCH(n, 4*n))
}

func benchFig2(b *testing.B, k metric.Kind, c float64) {
	b.Helper()
	src := benchLinkage(benchN)
	budgets := []int{1, 8, 16, 32, 52}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp := &eval.HistogramExperiment{
			Source: src, Metric: k, Params: metric.Params{C: c},
			Budgets: budgets, Samples: 1, Rng: rand.New(rand.NewSource(1)),
		}
		if _, err := exp.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2a_SSRE_c05(b *testing.B) { benchFig2(b, metric.SSRE, 0.5) }
func BenchmarkFig2b_SSRE_c10(b *testing.B) { benchFig2(b, metric.SSRE, 1.0) }
func BenchmarkFig2c_SSE(b *testing.B)      { benchFig2(b, metric.SSE, 0) }
func BenchmarkFig2d_SARE_c05(b *testing.B) { benchFig2(b, metric.SARE, 0.5) }
func BenchmarkFig2e_SARE_c10(b *testing.B) { benchFig2(b, metric.SARE, 1.0) }
func BenchmarkFig2f_SAE(b *testing.B)      { benchFig2(b, metric.SAE, 0) }

// BenchmarkFig3a: DP time as n grows, fixed B (the paper reports ~quadratic
// growth in n; compare ns/op across sub-benchmarks).
func BenchmarkFig3a(b *testing.B) {
	for _, n := range []int{256, 512, 1024, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := benchLinkage(n)
			o, err := hist.NewOracle(src, metric.SSRE, metric.Params{C: 0.5})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hist.OptimalPool(o, 50, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3b: DP time as B grows, fixed n (the paper reports linear
// growth in B).
func BenchmarkFig3b(b *testing.B) {
	src := benchLinkage(1024)
	o, err := hist.NewOracle(src, metric.SSRE, metric.Params{C: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	for _, B := range []int{25, 50, 100, 200} {
		b.Run(fmt.Sprintf("B=%d", B), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hist.OptimalPool(o, B, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchFig4(b *testing.B, src pdata.Source, bmax int) {
	b.Helper()
	budgets := []int{1, bmax / 8, bmax / 4, bmax / 2, bmax}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp := &eval.WaveletExperiment{
			Source: src, Budgets: budgets, Samples: 1,
			Rng: rand.New(rand.NewSource(1)),
		}
		if _, err := exp.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4a_WaveletMovie(b *testing.B)     { benchFig4(b, benchLinkage(4096), 640) }
func BenchmarkFig4b_WaveletSynthetic(b *testing.B) { benchFig4(b, benchTPCH(4096), 128) }

// --- ablations ----------------------------------------------------------------

// Exact tuple-pdf SSE DP (Gram-row sweep) vs the paper's closed form, which
// is wrong where a tuple straddles a bucket boundary (DESIGN.md finding 3).
func BenchmarkAblateTupleSSEExact(b *testing.B) {
	cfg := gen.DefaultTPCH(benchN, 4*benchN)
	cfg.Spread = 8
	src := gen.TPCHLineitem(rand.New(rand.NewSource(42)), cfg)
	o := hist.NewSSETuple(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hist.OptimalPool(o, 32, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateTupleSSEClosedForm(b *testing.B) {
	cfg := gen.DefaultTPCH(benchN, 4*benchN)
	cfg.Spread = 8
	src := gen.TPCHLineitem(rand.New(rand.NewSource(42)), cfg)
	o := hist.NewSSETupleClosedForm(src)
	// The closed form's sweep prices through Cost, whose prefix arrays are
	// built by the first call; the exact oracle's build never calls Cost.
	o.Cost(0, o.N()-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hist.OptimalPool(o, 32, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Exact DP vs the (1+eps)-approximate DP of Theorem 5 at n=4096, B=16:
// below the approximation's crossover, so the pruned exact DP is the
// faster one here (DESIGN.md finding 5: at B=16 the approximation wins
// only from n=32768 at eps >= 0.5).
func BenchmarkAblateExactDP(b *testing.B) {
	src := benchLinkage(4096)
	o, err := hist.NewOracle(src, metric.SSE, metric.Params{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hist.OptimalPool(o, 16, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateApproxDP(b *testing.B) {
	src := benchLinkage(4096)
	o, err := hist.NewOracle(src, metric.SSE, metric.Params{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hist.ApproximatePool(o, 16, 0.5, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Restricted non-SSE wavelet DP (Theorem 8) vs the greedy SSE synopsis
// (Theorem 7) at equal budget — the cost of optimizing a non-SSE metric.
func BenchmarkWaveletGreedySSE(b *testing.B) {
	src := benchLinkage(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wavelet.BuildSSE(src, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaveletRestrictedSAE(b *testing.B) {
	src := benchLinkage(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 0.5}, 8, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- wavelet build benchmarks (bottom-up tree DP on the engine) ---------------

// benchWaveletBuild sweeps the coefficient-tree DP over the sizes where
// production wavelet builds live. The parallel schedule is deterministic
// (bit-identical synopses), so the worker axis measures pure scheduling
// speedup, and the workers=1 rows track the serial hot path the bottom-up
// rewrite optimizes (the seed's recursive map-memoized DP was ~10x slower
// at n=1024, B=16).
func benchWaveletBuild(b *testing.B, build func(src pdata.Source, B, workers int) error) {
	b.Helper()
	for _, n := range []int{1024, 4096} {
		src := benchLinkage(n)
		for _, B := range []int{16, 64} {
			for _, workers := range benchWorkers() {
				name := fmt.Sprintf("n=%d/B=%d/workers=%d", n, B, workers)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := build(src, B, workers); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkWaveletRestrictedBuild: the restricted DP of Theorem 8 under
// SAE (every retained coefficient pinned to its expected value).
func BenchmarkWaveletRestrictedBuild(b *testing.B) {
	benchWaveletBuild(b, func(src pdata.Source, B, workers int) error {
		_, _, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 0.5}, B, engine.New(engine.Options{Workers: workers}))
		return err
	})
}

// BenchmarkWaveletRestrictedApprox: the quantized restricted DP against
// the exact one at the size where quantization starts paying — the exact
// DP's incoming-value rows grow as 2^(l+1) up the tree while the grids
// stay capped at q. The acceptance target is >= 5x over exact at n=4096,
// B=32 (q=16); past n=8192 the exact DP trips the entry cap and
// only the quantized rows fit.
func BenchmarkWaveletRestrictedApprox(b *testing.B) {
	const n, B = 4096, 32
	src := benchLinkage(n)
	run := func(variant string, build func() error) {
		b.Run(fmt.Sprintf("n=%d/B=%d/%s", n, B, variant), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("exact", func() error {
		_, _, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 0.5}, B, nil)
		return err
	})
	for _, q := range []int{16, 64} {
		run(fmt.Sprintf("q=%d", q), func() error {
			_, _, err := wavelet.BuildRestrictedApproxPool(src, metric.SAE, metric.Params{C: 0.5}, B, q, nil)
			return err
		})
	}
}

// --- sharded builds -----------------------------------------------------------

// BenchmarkShardedBuild: the same histogram built with k ∈ {1, 2, 4, 8}
// domain shards at one pool worker and at one per CPU, so a k = 1 row is
// compared with sharded rows that had the same cores (a k-way build fans
// its shards over up to k of the pool's workers; k = 1 is the unsharded
// build). Each row reports the merged histogram's cost and the certified
// Bound beside its time: what sharding buys is the time, what it pays is
// cost(k) - cost(1), and Bound is what it promises. Two speedup sources
// compose: work reduction (each shard's DP runs over n/k items, so the
// superlinear histogram DP shrinks faster than the shard count) and shard
// concurrency. (A wavelet is not sharded: past the exact tree DP's reach,
// WithQuantize is the faster and tighter path.)
func BenchmarkShardedBuild(b *testing.B) {
	const n, B = 8192, 8
	src := benchLinkage(n)
	workers := []int{1}
	if runtime.NumCPU() > 1 {
		workers = append(workers, runtime.NumCPU())
	}
	for _, k := range []int{1, 2, 4, 8} {
		for _, w := range workers {
			b.Run(fmt.Sprintf("histogram-SSE/n=%d/B=%d/k=%d/workers=%d", n, B, k, w), func(b *testing.B) {
				var res *probsyn.ShardedResult
				for i := 0; i < b.N; i++ {
					var err error
					if res, err = probsyn.BuildSharded(src, probsyn.SSE, B, k, probsyn.WithParallelism(w)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Synopsis.ErrorCost(), "cost")
				b.ReportMetric(res.Bound, "bound")
			})
		}
	}
}

// --- budget-sweep frontiers ---------------------------------------------------

// The frontier benchmarks prove the sweep's amortization: one DP run
// extracting every budget 1..B versus B independent single-budget
// builds of the same configuration (the acceptance target is >= 5x at
// n=1024, B=32; one forward DP dominates both sides, so the sweep is
// ~Bx cheaper). Sweep and independent variants do byte-identical work
// per synopsis — the delta is purely the shared forward DP.

const (
	frontierN = 1024
	frontierB = 32
)

func benchFrontierSweep(b *testing.B, sweep func(src pdata.Source) (*wavelet.Sweep, error)) {
	b.Helper()
	src := benchLinkage(frontierN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := sweep(src)
		if err != nil {
			b.Fatal(err)
		}
		for bb := 1; bb <= sw.Bmax(); bb++ {
			if _, err := sw.Synopsis(bb); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchFrontierIndependent(b *testing.B, build func(src pdata.Source, B int) error) {
	b.Helper()
	src := benchLinkage(frontierN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for bb := 1; bb <= frontierB; bb++ {
			if err := build(src, bb); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFrontierSweepRestricted(b *testing.B) {
	benchFrontierSweep(b, func(src pdata.Source) (*wavelet.Sweep, error) {
		return wavelet.NewSweep(src, wavelet.RestrictedFamily, metric.SAE, metric.Params{C: 0.5}, frontierB, 0, nil)
	})
}

func BenchmarkFrontierIndependentRestricted(b *testing.B) {
	benchFrontierIndependent(b, func(src pdata.Source, B int) error {
		_, _, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 0.5}, B, nil)
		return err
	})
}

// The histogram side of the same comparison: the DP table has always
// held every budget level; the frontier makes the amortization part of
// the public API surface.
func BenchmarkFrontierSweepHistogram(b *testing.B) {
	src := benchLinkage(frontierN)
	o, err := hist.NewOracle(src, metric.SSE, metric.Params{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := hist.RunDPPool(o, frontierB, nil)
		if err != nil {
			b.Fatal(err)
		}
		for bb := 1; bb <= tab.Bmax(); bb++ {
			if _, err := tab.Histogram(bb); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFrontierIndependentHistogram(b *testing.B) {
	src := benchLinkage(frontierN)
	o, err := hist.NewOracle(src, metric.SSE, metric.Params{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for bb := 1; bb <= frontierB; bb++ {
			if _, err := hist.OptimalPool(o, bb, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- parallel DP engine -------------------------------------------------------

// benchWorkers returns the worker counts to compare: serial vs the full
// machine (vs 2, so the parallel path is still exercised on 1-CPU boxes).
func benchWorkers() []int {
	par := runtime.NumCPU()
	if par < 2 {
		par = 2
	}
	return []int{1, par}
}

// BenchmarkRunDP tracks the worker-pool DP against the serial baseline on
// the same oracle, at the sizes where production builds live. The parallel
// schedule is deterministic (bit-identical tables), so the two variants do
// exactly the same arithmetic — the ratio is pure scheduling overhead vs
// speedup.
func BenchmarkRunDP(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		src := benchLinkage(n)
		o, err := hist.NewOracle(src, metric.SSE, metric.Params{})
		if err != nil {
			b.Fatal(err)
		}
		for _, B := range []int{16, 64} {
			for _, workers := range benchWorkers() {
				name := fmt.Sprintf("n=%d/B=%d/workers=%d", n, B, workers)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := hist.RunDPPool(o, B, engine.New(engine.Options{Workers: workers})); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkRunDPSweepOnly: same comparison on the tuple-pdf SSE oracle,
// the sweep-only one: the fill row sums its Gram row an end at a time
// while the bands scan the columns it has written.
func BenchmarkRunDPSweepOnly(b *testing.B) {
	src := benchTPCH(1024)
	o := hist.NewSSETuple(src)
	for _, workers := range benchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hist.RunDPPool(o, 64, engine.New(engine.Options{Workers: workers})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- oracle micro-benchmarks (per-bucket pricing cost, Theorems 1-4, 6) -------

func BenchmarkOracleCost(b *testing.B) {
	src := benchLinkage(2048)
	p := metric.Params{C: 0.5}
	for _, k := range []metric.Kind{metric.SSE, metric.SSEFixed, metric.SSRE,
		metric.SAE, metric.SARE, metric.MAE, metric.MARE} {
		b.Run(k.String(), func(b *testing.B) {
			o, err := hist.NewOracle(src, k, p)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			// The basic-model SSE oracle builds what Cost reads on its
			// first call; time the calls after it.
			o.Cost(0, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := rng.Intn(2048)
				e := s + rng.Intn(2048-s)
				if k == metric.MAE || k == metric.MARE {
					// max oracles are O(bucket width); keep widths modest
					if e > s+64 {
						e = s + 64
					}
				}
				o.Cost(s, e)
			}
		})
	}
}

// BenchmarkOracleSweep is BenchmarkOracleCost for the oracles the DP
// prices a column at a time: one op fills the longest column (every bucket
// ending at the last item), so ns/cost is what one filled bucket cost
// stands the DP in. Compare it with the same metric's BenchmarkOracleCost
// ns/op, the cold search the sweep warm-starts. MAE runs a shorter domain:
// its sweep is O(|V| + bucket width) per bucket.
func BenchmarkOracleSweep(b *testing.B) {
	p := metric.Params{C: 0.5}
	for _, k := range []metric.Kind{metric.SAE, metric.SARE, metric.MAE} {
		n := 2048
		if k == metric.MAE {
			n = 256
		}
		b.Run(k.String(), func(b *testing.B) {
			o, err := hist.NewOracle(benchLinkage(n), k, p)
			if err != nil {
				b.Fatal(err)
			}
			costs, reps := make([]float64, n), make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.CostsForEnd(n-1, costs, reps)
			}
			b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(n), "ns/cost")
		})
	}
}

func BenchmarkMonteCarloEvaluation(b *testing.B) {
	src := benchLinkage(1024)
	o, err := hist.NewOracle(src, metric.SAE, metric.Params{C: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	h, err := hist.OptimalPool(o, 32, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.MonteCarloHistogramError(src, h, metric.SAE, metric.Params{C: 0.5}, 100, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- incremental maintenance -------------------------------------------------

// The incremental benchmarks measure what the histogram's retained DP
// table buys: at n=1024, B=32, one live mutation — including the
// revalidated frontier it leaves behind — against a from-scratch
// BuildSweep over the same data. Updates land near the domain tail,
// where the re-DP is proportional to the columns right of the update. A
// live wavelet frontier sweeps afresh on every mutation, so its cost is
// the rebuild row's (DESIGN.md "Incremental maintenance").

const incrB = 32

func incrHistSource() *probsyn.ValuePDF {
	return gen.SensorGrid(rand.New(rand.NewSource(42)), gen.DefaultSensor(1024))
}

// Two exactly-mean-1 pdfs (0.5*2 == 0.25*1 + 0.25*3) the update
// alternates between.
var (
	incrItemA = probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: 2, Prob: 0.5}}}
	incrItemB = probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: 1, Prob: 0.25}, {Freq: 3, Prob: 0.25}}}
)

func mustBuildLive(b *testing.B, src *probsyn.ValuePDF) probsyn.Maintainer {
	b.Helper()
	live, err := probsyn.BuildLive(src, probsyn.SSE, incrB)
	if err != nil {
		b.Fatal(err)
	}
	return live
}

func BenchmarkIncrementalUpdate(b *testing.B) {
	b.Run("histogram-live", func(b *testing.B) {
		src := incrHistSource()
		live := mustBuildLive(b, src)
		at := src.N - 64 // tail correction: 64 suffix columns re-run
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it := incrItemA
			if i%2 == 1 {
				it = incrItemB
			}
			if err := live.Update(at, it); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("histogram-rebuild", func(b *testing.B) {
		src := incrHistSource()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := probsyn.BuildSweep(src, probsyn.SSE, incrB); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkIncrementalAppend(b *testing.B) {
	b.Run("histogram-live", func(b *testing.B) {
		src := incrHistSource()
		var live probsyn.Maintainer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%64 == 0 { // a fresh frontier every 64 appends keeps n near 1024
				b.StopTimer()
				live = mustBuildLive(b, src)
				b.StartTimer()
			}
			if err := live.Append([]probsyn.ItemPDF{incrItemA}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("histogram-rebuild", func(b *testing.B) {
		src := incrHistSource()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := probsyn.BuildSweep(src, probsyn.SSE, incrB); err != nil {
				b.Fatal(err)
			}
		}
	})
}
