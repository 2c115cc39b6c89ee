package probsyn_test

// Frontier tests past the conformance table's reach: concurrent
// extraction (run under -race in CI) and a 32-budget sweep at n=1024.
// The table's BuildSweep entry holds every sweep to Build's bytes at
// every budget, on every pool.

import (
	"bytes"
	"math"
	"math/rand"
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
