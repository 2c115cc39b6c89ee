// Workload: the two extensions beyond the paper's core results — a
// query-workload-weighted histogram (§6 poses non-uniform point-query
// workloads as future work) and the unrestricted wavelet thresholding of
// §4.2 (retained values optimized over quantized ranges rather than pinned
// to expected coefficients).
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

	// Unrestricted vs restricted wavelets under SAE on a small slice.
	slice := &probsyn.ValuePDF{N: 16, Items: readings.Items[:16]}
	restricted, err := probsyn.Build(slice, probsyn.SAE, 3, probsyn.WithWavelet())
	if err != nil {
		log.Fatal(err)
	}
	unrestricted, err := probsyn.Build(slice, probsyn.SAE, 3, probsyn.WithWavelet(), probsyn.WithUnrestricted(6))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n3-term SAE wavelet over 16 sensors:\n")
	fmt.Printf("restricted (values = expected coefficients): expected error %.4f\n", restricted.ErrorCost())
	fmt.Printf("unrestricted (values over quantized ranges):  expected error %.4f\n", unrestricted.ErrorCost())
}
