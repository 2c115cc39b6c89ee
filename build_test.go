package probsyn_test

import (
	"runtime"
	"sync"
	"testing"

	"probsyn"
	"probsyn/internal/engine"
	"probsyn/internal/hist"
)

// WithPool must produce bit-identical synopses to per-call builds, for
// both families, on one shared pool reused across builds.
func TestBuildWithPoolBitIdentical(t *testing.T) {
	src := sampleValuePDF()
	pool := engine.New(engine.Options{Workers: runtime.NumCPU(), Grain: 1})
	for name, opts := range map[string][]probsyn.BuildOption{
		"histogram": nil,
		"wavelet":   {probsyn.WithWavelet()},
	} {
		want, err := probsyn.Build(src, probsyn.SAE, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := probsyn.Build(src, probsyn.SAE, 2, append([]probsyn.BuildOption{probsyn.WithPool(pool)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if got.ErrorCost() != want.ErrorCost() || got.Terms() != want.Terms() {
			t.Fatalf("%s: pooled build (%d terms, cost %v) != per-call (%d terms, cost %v)",
				name, got.Terms(), got.ErrorCost(), want.Terms(), want.ErrorCost())
		}
		for i := 0; i < 4; i++ {
			if a, b := got.Estimate(i), want.Estimate(i); a != b {
				t.Fatalf("%s: Estimate(%d) %v != %v", name, i, a, b)
			}
		}
	}
}

// Concurrent Builds sharing a capped pool must be admission-controlled:
// the pool's high-water mark of in-flight builds never exceeds MaxBuilds,
// and every build still completes with the right result.
func TestBuildSharedPoolAdmissionControl(t *testing.T) {
	src := sampleValuePDF()
	const maxBuilds = 2
	pool := engine.New(engine.Options{Workers: 2, Grain: 1, MaxBuilds: maxBuilds})
	want, err := probsyn.Build(src, probsyn.SSRE, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 12)
	costs := make([]float64, 12)
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s, err := probsyn.Build(src, probsyn.SSRE, 2, probsyn.WithPool(pool))
			if err != nil {
				errs[k] = err
				return
			}
			costs[k] = s.ErrorCost()
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("build %d: %v", k, err)
		}
		if costs[k] != want.ErrorCost() {
			t.Fatalf("build %d: cost %v, want %v", k, costs[k], want.ErrorCost())
		}
	}
	if peak := pool.PeakInFlight(); peak < 1 || peak > maxBuilds {
		t.Fatalf("peak in-flight builds %d, want in [1, %d]", peak, maxBuilds)
	}
	if got := pool.InFlight(); got != 0 {
		t.Fatalf("in-flight builds %d after completion, want 0", got)
	}
}

// Build must produce the family layer's optimal histogram, at any
// parallelism, behind the shared interface.
func TestBuildMatchesOptimalPool(t *testing.T) {
	src := sampleValuePDF()
	o, err := hist.NewOracle(src, probsyn.SSRE, probsyn.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := hist.OptimalPool(o, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, runtime.NumCPU(), 0} {
		s, err := probsyn.Build(src, probsyn.SSRE, 2, probsyn.WithParallelism(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		h, ok := s.(*probsyn.Histogram)
		if !ok {
			t.Fatalf("workers=%d: Build returned %T, want *Histogram", workers, s)
		}
		if h.Cost != want.Cost || h.B() != want.B() {
			t.Fatalf("workers=%d: (B=%d, cost=%v) != OptimalPool (B=%d, cost=%v)",
				workers, h.B(), h.Cost, want.B(), want.Cost)
		}
	}
}

func TestBuildWaveletOption(t *testing.T) {
	src := sampleValuePDF()
	s, err := probsyn.Build(src, probsyn.SSE, 3, probsyn.WithWavelet())
	if err != nil {
		t.Fatal(err)
	}
	syn, ok := s.(*probsyn.WaveletSynopsis)
	if !ok {
		t.Fatalf("Build returned %T, want *WaveletSynopsis", s)
	}
	want, rep, err := probsyn.SSEWavelet(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	if syn.Terms() != want.Terms() || syn.ErrorCost() != rep.ExpectedSSE {
		t.Fatalf("wavelet Build: %d terms cost %v, want %d terms cost %v",
			syn.Terms(), syn.ErrorCost(), want.Terms(), rep.ExpectedSSE)
	}
	// Restricted path for a non-SSE metric.
	s, err = probsyn.Build(src, probsyn.SAE, 2, probsyn.WithWavelet())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*probsyn.WaveletSynopsis); !ok {
		t.Fatalf("Build(SAE, WithWavelet) returned %T", s)
	}
}

func TestBuildOptionValidation(t *testing.T) {
	src := sampleValuePDF()
	// Non-positive eps must error, not silently fall back to the exact DP.
	for _, eps := range []float64{0, -0.5} {
		if _, err := probsyn.Build(src, probsyn.SSE, 2, probsyn.WithEps(eps)); err == nil {
			t.Errorf("eps=%v accepted", eps)
		}
	}
	// Errors must return an untyped nil interface, not a typed-nil pointer
	// (the approximate DP rejects maximum-error metrics).
	if s, err := probsyn.Build(src, probsyn.MAE, 2, probsyn.WithEps(0.5)); err == nil {
		t.Error("approximate DP accepted for a maximum-error metric")
	} else if s != nil {
		t.Errorf("Build error path returned non-nil Synopsis %#v", s)
	}
	if _, err := probsyn.Build(src, probsyn.SAE, 2, probsyn.WithWorkloadWeights([]float64{1, 1, 1, 1})); err == nil {
		t.Error("workload weights accepted under SAE")
	}
	if _, err := probsyn.Build(src, probsyn.SSE, 2, probsyn.WithWavelet(), probsyn.WithEps(0.5)); err == nil {
		t.Error("eps accepted for wavelet family")
	}
	if _, err := probsyn.Build(src, probsyn.SSE, 2, probsyn.WithWavelet(),
		probsyn.WithWorkloadWeights([]float64{1, 1, 1, 1})); err == nil {
		t.Error("workload weights accepted for wavelet family")
	}
}

func TestBuildWorkloadWeights(t *testing.T) {
	src := sampleValuePDF()
	weights := []float64{1, 1, 10, 10}
	o, err := hist.NewWorkloadSSE(src, weights)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hist.OptimalPool(o, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := probsyn.Build(src, probsyn.SSEFixed, 2, probsyn.WithWorkloadWeights(weights))
	if err != nil {
		t.Fatal(err)
	}
	if h := s.(*probsyn.Histogram); h.Cost != want.Cost {
		t.Fatalf("Build workload cost %v != OptimalPool %v", h.Cost, want.Cost)
	}
}

// The public serialization facade: both families survive the binary
// round-trip, and the JSON envelope once written beside it is refused.
func TestSynopsisFacadeRoundTrip(t *testing.T) {
	src := sampleValuePDF()
	h, err := probsyn.Build(src, probsyn.SSE, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := probsyn.Build(src, probsyn.SSE, 2, probsyn.WithWavelet())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []probsyn.Synopsis{h, w} {
		blob, err := probsyn.MarshalSynopsis(s)
		if err != nil {
			t.Fatalf("%T: %v", s, err)
		}
		back, err := probsyn.UnmarshalSynopsis(blob)
		if err != nil {
			t.Fatalf("%T: %v", s, err)
		}
		for i := 0; i < 4; i++ {
			if a, b := s.Estimate(i), back.Estimate(i); a != b {
				t.Fatalf("%T: Estimate(%d) %v != %v", s, i, b, a)
			}
		}
		if a, b := s.ErrorCost(), back.ErrorCost(); a != b {
			t.Fatalf("%T: ErrorCost %v != %v", s, b, a)
		}
		if back.Terms() != s.Terms() {
			t.Fatalf("%T: round-trip terms %d != %d", s, back.Terms(), s.Terms())
		}
	}
	if _, err := probsyn.UnmarshalSynopsis([]byte(`{"version":1,"type":"histogram","synopsis":{"N":1,"Buckets":[{"Start":0,"End":0,"Rep":1}]}}`)); err == nil {
		t.Fatal("UnmarshalSynopsis accepted a JSON envelope")
	}
}
