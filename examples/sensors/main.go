// Sensors: summarize a grid of noisy sensors (value pdf model) and show why
// optimizing the probabilistic objective beats summarizing a single sampled
// snapshot — the paper's §5 comparison on a realistic workload.
//
// Run with: go run ./examples/sensors
package main

import (
	"fmt"
	"log"
	"math/rand"

	"probsyn"
	"probsyn/internal/eval"
	"probsyn/internal/gen"
	"probsyn/internal/metric"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	const n = 512
	readings := gen.SensorGrid(rng, gen.DefaultSensor(n))
	fmt.Printf("sensor grid: %d sensors, %d (value, probability) pairs\n", readings.Domain(), readings.M())

	// Summarize with 24 buckets under expected sum-absolute error, with
	// the paper's three construction strategies.
	exp := &eval.HistogramExperiment{
		Source:  readings,
		Metric:  metric.SAE,
		Params:  metric.Params{C: 0.5},
		Budgets: []int{4, 8, 16, 24, 48},
		Samples: 3,
		Rng:     rng,
	}
	series, err := exp.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nexpected sum-absolute error by construction method:")
	fmt.Printf("%-16s", "buckets")
	for _, pt := range series[0].Points {
		fmt.Printf("%10d", pt.B)
	}
	fmt.Println()
	for _, s := range series {
		name := s.Method.String()
		if s.Method == eval.SampledWorld {
			name = fmt.Sprintf("%s %d", name, s.Sample+1)
		}
		fmt.Printf("%-16s", name)
		for _, pt := range s.Points {
			fmt.Printf("%10.2f", pt.Cost)
		}
		fmt.Println()
	}

	// Use the optimal histogram to answer monitoring queries.
	h, err := probsyn.Build(readings, probsyn.SAE, 24)
	if err != nil {
		log.Fatal(err)
	}
	exact := readings.ExpectedFreqs()
	fmt.Println("\nregion monitoring (expected total reading per region):")
	for _, q := range [][2]int{{0, 127}, {128, 255}, {256, 383}, {384, 511}} {
		truth := 0.0
		for i := q[0]; i <= q[1]; i++ {
			truth += exact[i]
		}
		est := h.RangeSum(q[0], q[1])
		fmt.Printf("sensors [%3d..%3d]: exact %8.1f  histogram %8.1f  (%+.2f%%)\n",
			q[0], q[1], truth, est, 100*(est-truth)/truth)
	}
}
