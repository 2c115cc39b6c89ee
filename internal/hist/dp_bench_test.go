package hist

// Benchmarks pinning the pruned DP's output-sensitivity claim: the same
// (n, B, metric) build through the default pruned reduction vs. the dense
// reference (denseTable). The data is structured — piecewise-
// constant segments plus small noise — which is where monotonicity
// pruning bites; both variants run on a serial pool so the timing isolates
// the split-scan work rather than scheduling (two workers=2 rows record
// what the tile schedule adds on top; cost-evals/op is the same at any
// worker count). The absolute-error rows (SAE, SARE, MAE) also compare two
// pricings: the default build sweeps each column, the dense reference
// prices it bucket by bucket through cold Cost calls. The data is the
// oracles' worst case — every item certain and distinct, so |V| = n+1 and
// the SAE cost of every even-sized bucket is flat between its two middle
// values, which sends that bucket to the cold search.
// cost-evals/op is an exact count, so it is pinned by tier-1 tests, not by
// these rows: one evaluation per bucket, n(n+1)/2, for every oracle kind in
// TestPrunedDPLazyEvalsBounded and TestReferencePathsPriceThroughCost.
import (
	"fmt"
	"math/rand"
	"testing"

	"probsyn/internal/engine"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
)

// benchSegmented builds a deterministic n-item source with 16 flat
// segments of increasing level plus ±0.25 uniform noise: large inter-
// segment cost steps (deep prev-side cuts) with enough jitter that no
// bucket is exactly free.
func benchSegmented(n int) *pdata.ValuePDF {
	rng := rand.New(rand.NewSource(1009))
	freqs := make([]float64, n)
	seg := n / 16
	for i := range freqs {
		freqs[i] = float64(i/seg)*4 + rng.Float64()*0.5 - 0.25
	}
	return pdata.Deterministic(freqs)
}

func benchDP(b *testing.B, dense bool, workers, n, B int, k metric.Kind) {
	b.Helper()
	o, err := NewOracle(benchSegmented(n), k, metric.Params{C: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	pool := engine.New(engine.Options{Workers: workers})
	var st DPStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tab *DPTable
		if dense {
			tab = denseTable(o, B)
		} else if tab, err = RunDPPool(o, B, pool); err != nil {
			b.Fatal(err)
		}
		st = tab.Stats()
	}
	b.ReportMetric(float64(st.CostEvals), "cost-evals/op")
	b.ReportMetric(float64(st.CandidatesScanned), "scanned/op")
}

func benchDPGrid(b *testing.B, dense bool) {
	b.Helper()
	for _, n := range []int{2048, 8192} {
		for _, B := range []int{50, 200} {
			for _, k := range []metric.Kind{metric.SSE, metric.SSRE, metric.SAE, metric.SARE} {
				b.Run(fmt.Sprintf("n=%d/B=%d/%s", n, B, k), func(b *testing.B) {
					benchDP(b, dense, 1, n, B, k)
				})
			}
		}
	}
	// Parallel-vs-serial on the same data: the workers=2 twins of the
	// n=2048/B=50 SSE and SARE rows (the counts equal their serial twins').
	if !dense {
		for _, k := range []metric.Kind{metric.SSE, metric.SARE} {
			b.Run(fmt.Sprintf("n=2048/B=50/%s/workers=2", k), func(b *testing.B) {
				benchDP(b, false, 2, 2048, 50, k)
			})
		}
	}
	// The maximum-error oracle is O(|V| + bucket width) per swept bucket
	// and dearer still bucket by bucket, so its row stays small.
	b.Run("n=256/B=16/MAE", func(b *testing.B) { benchDP(b, dense, 1, 256, 16, metric.MAE) })
}

// BenchmarkHistDPPruned: the default path. Compare each sub-benchmark
// against its BenchmarkHistDPDense twin; the SSE n=8192/B=200 pair is
// the headline (at -benchtime=2x on a 2-CPU Xeon: 1.11 s pruned, 8.3 to
// 9.9 s dense).
func BenchmarkHistDPPruned(b *testing.B) { benchDPGrid(b, false) }

// BenchmarkHistDPDense: the dense reference, same grid.
func BenchmarkHistDPDense(b *testing.B) { benchDPGrid(b, true) }
