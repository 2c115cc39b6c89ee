package eval

import (
	"math/rand"
	"runtime"
	"testing"

	"probsyn/internal/metric"
	"probsyn/internal/ptest"
	"probsyn/internal/wavelet"
)

func TestWaveletDPExperimentCostsMatchSerialBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := ptest.RandomValuePDF(rng, 16, 3)
	budgets := []int{1, 4, 8}
	exp := &WaveletDPExperiment{
		Source: src, Metric: metric.SAE, Params: metric.Params{C: 0.5},
		Budgets: budgets, Parallelism: runtime.NumCPU(),
	}
	points, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(budgets) {
		t.Fatalf("%d points, want %d", len(points), len(budgets))
	}
	prev := 0.0
	for i, pt := range points {
		if pt.B != budgets[i] {
			t.Fatalf("point %d has B=%d, want %d", i, pt.B, budgets[i])
		}
		_, want, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 0.5}, pt.B, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Cost != want {
			t.Fatalf("B=%d: parallel experiment cost %v, serial build %v (not bit-identical)", pt.B, pt.Cost, want)
		}
		if i > 0 && pt.Cost > prev {
			t.Fatalf("cost not monotone in budget: %v after %v", pt.Cost, prev)
		}
		prev = pt.Cost
		if pt.Terms > pt.B {
			t.Fatalf("B=%d retained %d terms", pt.B, pt.Terms)
		}
	}
}

func TestWaveletDPExperimentNoBudgets(t *testing.T) {
	exp := &WaveletDPExperiment{}
	if _, err := exp.Run(); err == nil {
		t.Fatal("empty budget sweep accepted")
	}
}
