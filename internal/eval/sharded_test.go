package eval_test

import (
	"testing"

	"probsyn/internal/eval"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
)

// TestShardedExperimentHistogramFrontier pins the frontier's semantics:
// the k=1 row is the unsharded optimum with a zero bound, and every
// sharded row's cost stays within its own certified bound of that
// optimum.
func TestShardedExperimentHistogramFrontier(t *testing.T) {
	src := smallLinkage(t, 96)
	exp := &eval.ShardedExperiment{
		Source: src, Metric: metric.SSE, B: 6, Ks: []int{1, 2, 4},
	}
	points, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	oracle, err := hist.NewOracle(src, metric.SSE, metric.Params{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := hist.OptimalPool(oracle, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := points[0]
	if base.K != 1 || base.Bound != 0 {
		t.Fatalf("k=1 row: K=%d Bound=%g, want the zero-bound unsharded baseline", base.K, base.Bound)
	}
	if base.Cost != opt.ErrorCost() {
		t.Fatalf("k=1 cost %g != unsharded optimum %g", base.Cost, opt.ErrorCost())
	}
	for _, p := range points {
		if p.Cost < base.Cost-1e-9 {
			t.Errorf("k=%d cost %g beats the unsharded optimum %g", p.K, p.Cost, base.Cost)
		}
		if p.Cost > base.Cost+p.Bound+1e-9 {
			t.Errorf("k=%d cost %g exceeds optimum %g + bound %g", p.K, p.Cost, base.Cost, p.Bound)
		}
		if p.Seconds <= 0 {
			t.Errorf("k=%d reported non-positive wall time %g", p.K, p.Seconds)
		}
	}
}

// TestShardedExperimentWaveletSSEExact pins that the SSE wavelet rows
// certify exactness: the merge is bit-identical to the unsharded build,
// so every k reports the same cost with a zero bound.
func TestShardedExperimentWaveletSSEExact(t *testing.T) {
	src := smallLinkage(t, 64)
	exp := &eval.ShardedExperiment{
		Source: src, Metric: metric.SSE, B: 8, Ks: []int{1, 2, 4}, Wavelet: true,
	}
	points, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Bound != 0 {
			t.Errorf("k=%d: SSE wavelet merge reported bound %g, want 0 (exact)", p.K, p.Bound)
		}
		if p.Cost != points[0].Cost {
			t.Errorf("k=%d cost %g != k=1 cost %g (exact merge must agree)", p.K, p.Cost, points[0].Cost)
		}
	}
}

// TestShardedExperimentValidates pins the argument errors.
func TestShardedExperimentValidates(t *testing.T) {
	src := smallLinkage(t, 32)
	if _, err := (&eval.ShardedExperiment{Source: src, Metric: metric.SSE, B: 0, Ks: []int{1}}).Run(); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := (&eval.ShardedExperiment{Source: src, Metric: metric.SSE, B: 4}).Run(); err == nil {
		t.Error("empty Ks accepted")
	}
}
