package probsyn_test

// Frontier property tests: for both synopsis families, one BuildSweep
// must serve every budget b <= Bmax with (1) non-increasing costs and
// (2) a synopsis whose codec bytes are identical to an independent
// Build at budget b — at several worker counts, so the parallel DP
// schedule provably does not leak into the frontier. Run under -race in
// CI, this also exercises concurrent extraction.

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"probsyn"
	"probsyn/internal/gen"
)

func sweepSource(n int) probsyn.Source {
	return gen.MystiQLinkage(rand.New(rand.NewSource(42)), gen.DefaultMystiQ(n))
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

// familyOpts enumerates the build configurations the frontier must agree
// with Build on: a histogram and the restricted wavelet DP.
func familyOpts() map[string][]probsyn.BuildOption {
	return map[string][]probsyn.BuildOption{
		"histogram":          nil,
		"wavelet-restricted": {probsyn.WithWavelet()},
	}
}

func TestFrontierByteIdenticalToIndependentBuilds(t *testing.T) {
	src := sweepSource(64)
	const Bmax = 12
	for name, opts := range familyOpts() {
		m := probsyn.SAE
		if name == "histogram" {
			m = probsyn.SSE
		}
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			wopts := append(append([]probsyn.BuildOption(nil), opts...), probsyn.WithParallelism(workers))
			fr, err := probsyn.BuildSweep(src, m, Bmax, wopts...)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", name, workers, err)
			}
			if fr.Bmax() != Bmax {
				t.Fatalf("%s: Bmax = %d, want %d", name, fr.Bmax(), Bmax)
			}
			prev := fr.Cost(1)
			for b := 1; b <= Bmax; b++ {
				if c := fr.Cost(b); c > prev {
					t.Fatalf("%s: cost increases at budget %d: %v > %v", name, b, c, prev)
				} else {
					prev = c
				}
				syn, err := fr.Synopsis(b)
				if err != nil {
					t.Fatal(err)
				}
				got, err := probsyn.MarshalSynopsis(syn)
				if err != nil {
					t.Fatal(err)
				}
				// Independent builds run serial: worker count must not
				// change a byte anywhere in the frontier.
				sopts := append(append([]probsyn.BuildOption(nil), opts...), probsyn.WithParallelism(1))
				indep, err := probsyn.Build(src, m, b, sopts...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := probsyn.MarshalSynopsis(indep)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/workers=%d: budget %d: swept synopsis bytes differ from independent build", name, workers, b)
				}
				// The frontier cost is the DP objective value. Wavelet
				// synopses record exactly it; the materialized histogram
				// re-prices its buckets in bucket order, which can move
				// the sum by an ulp — allow only that.
				if got, rec := fr.Cost(b), syn.ErrorCost(); got != rec {
					if name != "histogram" || relDiff(got, rec) > 1e-12 {
						t.Fatalf("%s: Cost(%d) = %v but synopsis records %v", name, b, got, rec)
					}
				}
			}
			// Out-of-range extraction budgets are errors, not clamps.
			for _, b := range []int{0, -1, Bmax + 1} {
				if _, err := fr.Synopsis(b); err == nil {
					t.Fatalf("%s: Synopsis(%d) succeeded, want range error", name, b)
				}
			}
		}
	}
}

// TestFrontierConcurrentExtraction: Synopsis is read-only on the DP
// tables, so concurrent per-budget extraction must be race-free (-race
// in CI) and agree with serial extraction.
func TestFrontierConcurrentExtraction(t *testing.T) {
	src := sweepSource(64)
	const Bmax = 16
	for name, opts := range familyOpts() {
		fr, err := probsyn.BuildSweep(src, probsyn.SAE, Bmax, append(opts, probsyn.WithParallelism(2))...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := make([][]byte, Bmax)
		for b := 1; b <= Bmax; b++ {
			syn, err := fr.Synopsis(b)
			if err != nil {
				t.Fatal(err)
			}
			if want[b-1], err = probsyn.MarshalSynopsis(syn); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, Bmax)
		for b := 1; b <= Bmax; b++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				syn, err := fr.Synopsis(b)
				if err != nil {
					errs[b-1] = err
					return
				}
				got, err := probsyn.MarshalSynopsis(syn)
				if err != nil {
					errs[b-1] = err
					return
				}
				if !bytes.Equal(got, want[b-1]) {
					errs[b-1] = errBytesDiffer
				}
			}(b)
		}
		wg.Wait()
		for b, err := range errs {
			if err != nil {
				t.Fatalf("%s: concurrent extraction at budget %d: %v", name, b+1, err)
			}
		}
	}
}

var errBytesDiffer = errDiff{}

type errDiff struct{}

func (errDiff) Error() string { return "concurrent extraction bytes differ from serial extraction" }

// TestFrontierAcceptance: at n=1024, Bmax=32, every one of the 32 budgets
// a restricted wavelet sweep extracts from one DP run is byte-identical
// to the corresponding single-budget build.
func TestFrontierAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1024 acceptance sweep skipped in -short mode")
	}
	src := sweepSource(1024)
	const Bmax = 32
	cases := map[string][]probsyn.BuildOption{
		"wavelet-restricted": {probsyn.WithWavelet()},
	}
	for name, opts := range cases {
		opts = append(opts, probsyn.WithParallelism(0)) // one worker per CPU
		fr, err := probsyn.BuildSweep(src, probsyn.SAE, Bmax, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for b := 1; b <= Bmax; b++ {
			syn, err := fr.Synopsis(b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := probsyn.MarshalSynopsis(syn)
			if err != nil {
				t.Fatal(err)
			}
			indep, err := probsyn.Build(src, probsyn.SAE, b, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := probsyn.MarshalSynopsis(indep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: budget %d: swept bytes differ from single-budget build", name, b)
			}
		}
	}
}

// TestBuildSweepValidation: the approximate DP has no frontier, and
// histogram sweeps reject wavelet-only options.
func TestBuildSweepValidation(t *testing.T) {
	src := sweepSource(32)
	if _, err := probsyn.BuildSweep(src, probsyn.SSE, 0); err == nil {
		t.Fatal("Bmax 0 accepted")
	}
	if _, err := probsyn.BuildSweep(src, probsyn.SSE, 8, probsyn.WithEps(0.5)); err == nil {
		t.Fatal("eps-approximate sweep accepted")
	}
	// SSE wavelet sweeps ride the greedy frontier.
	fr, err := probsyn.BuildSweep(src, probsyn.SSE, 8, probsyn.WithWavelet())
	if err != nil {
		t.Fatal(err)
	}
	syn, err := fr.Synopsis(8)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := probsyn.SSEWavelet(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := probsyn.MarshalSynopsis(syn)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := probsyn.MarshalSynopsis(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatal("SSE wavelet sweep differs from greedy build")
	}
	// Workload-weighted histogram frontiers work: the weighted oracle
	// rides the same DP table.
	weights := make([]float64, src.Domain())
	for i := range weights {
		weights[i] = float64(1 + i%3)
	}
	wfr, err := probsyn.BuildSweep(src, probsyn.SSEFixed, 6, probsyn.WithWorkloadWeights(weights))
	if err != nil {
		t.Fatal(err)
	}
	wsyn, err := wfr.Synopsis(4)
	if err != nil {
		t.Fatal(err)
	}
	windep, err := probsyn.Build(src, probsyn.SSEFixed, 4, probsyn.WithWorkloadWeights(weights))
	if err != nil {
		t.Fatal(err)
	}
	wgb, err := probsyn.MarshalSynopsis(wsyn)
	if err != nil {
		t.Fatal(err)
	}
	wwb, err := probsyn.MarshalSynopsis(windep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wgb, wwb) {
		t.Fatal("workload-weighted sweep differs from independent build")
	}
}
