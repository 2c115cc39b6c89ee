// Workload: a query-workload-weighted histogram, the extension beyond the
// paper's core results that §6 poses as future work (non-uniform
// point-query workloads).
//
// Run with: go run ./examples/workload
package main

import (
	"fmt"
	"log"
	"math/rand"

	"probsyn"
	"probsyn/internal/gen"
)

func main() {
	rng := rand.New(rand.NewSource(5))
	const n = 256
	readings := gen.SensorGrid(rng, gen.DefaultSensor(n))

	// A workload that hammers one hot region: 90% of point queries hit
	// sensors 32..63, the rest spread uniformly.
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 0.1 / float64(n)
	}
	for i := 32; i < 64; i++ {
		weights[i] += 0.9 / 32
	}

	// Both histograms go through the unified Build entry point; the
	// workload objective is just an option, and the DP runs on every CPU
	// (the parallel schedule is deterministic, so the result is identical
	// to a single-threaded build).
	const B = 12
	uniformSyn, err := probsyn.Build(readings, probsyn.SSEFixed, B,
		probsyn.WithParallelism(0))
	if err != nil {
		log.Fatal(err)
	}
	uniform := uniformSyn.(*probsyn.Histogram)
	weightedSyn, err := probsyn.Build(readings, probsyn.SSEFixed, B,
		probsyn.WithWorkloadWeights(weights), probsyn.WithParallelism(0))
	if err != nil {
		log.Fatal(err)
	}
	weighted := weightedSyn.(*probsyn.Histogram)

	bucketsIn := func(h *probsyn.Histogram, lo, hi int) int {
		c := 0
		for _, b := range h.Buckets {
			if b.Start >= lo && b.Start <= hi {
				c++
			}
		}
		return c
	}
	fmt.Printf("%d-bucket histograms over %d sensors; hot region = sensors [32..63]\n", B, n)
	fmt.Printf("uniform objective:  %2d bucket boundaries inside the hot region\n",
		bucketsIn(uniform, 32, 63))
	fmt.Printf("workload objective: %2d bucket boundaries inside the hot region\n",
		bucketsIn(weighted, 32, 63))

	// Compare expected weighted squared error of the two bucketings.
	score := func(h *probsyn.Histogram) float64 {
		exact := readings.ExpectedFreqs()
		total := 0.0
		for i, w := range weights {
			d := exact[i] - h.Estimate(i)
			total += w * d * d
		}
		return total
	}
	fmt.Printf("\nworkload-weighted squared error (on expected frequencies):\n")
	fmt.Printf("uniform objective:  %.4f\n", score(uniform))
	fmt.Printf("workload objective: %.4f\n", score(weighted))

}
