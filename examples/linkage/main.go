// Linkage: summarize record-linkage output (basic model — the paper's
// MystiQ workload) with relative-error histograms and wavelets, the
// synopses a probabilistic query optimizer would consult.
//
// Run with: go run ./examples/linkage
package main

import (
	"fmt"
	"log"
	"math/rand"

	"probsyn"
	"probsyn/internal/gen"
)

func main() {
	rng := rand.New(rand.NewSource(2009))
	const n = 1024
	links := gen.MystiQLinkage(rng, gen.DefaultMystiQ(n))
	fmt.Printf("linkage table: %d entities, %d candidate-match tuples\n", links.Domain(), len(links.Tuples))

	// Histogram under sum-squared relative error (the metric the paper
	// leads with): c = 0.5 protects low-frequency entities.
	const B = 48
	c := probsyn.WithParams(probsyn.Params{C: 0.5})
	hs, err := probsyn.Build(links, probsyn.SSRE, B, c)
	if err != nil {
		log.Fatal(err)
	}
	h := hs.(*probsyn.Histogram)
	fmt.Printf("\noptimal %d-bucket SSRE histogram: expected error %.4f\n", B, h.Cost)
	fmt.Println("widest and narrowest buckets:")
	widest, narrowest := h.Buckets[0], h.Buckets[0]
	for _, b := range h.Buckets {
		if b.Width() > widest.Width() {
			widest = b
		}
		if b.Width() < narrowest.Width() {
			narrowest = b
		}
	}
	fmt.Printf("  widest    [%4d..%4d] (%d items) ≈ %.3f expected matches\n",
		widest.Start, widest.End, widest.Width(), widest.Rep)
	fmt.Printf("  narrowest [%4d..%4d] (%d items) ≈ %.3f expected matches\n",
		narrowest.Start, narrowest.End, narrowest.Width(), narrowest.Rep)

	// The (1+eps)-approximate construction (Theorem 5) trades a bounded
	// cost increase for a faster build.
	apx, err := probsyn.Build(links, probsyn.SSRE, B, c, probsyn.WithEps(0.25))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n(1+0.25)-approximate histogram: expected error %.4f (%.2fx optimal)\n",
		apx.ErrorCost(), apx.ErrorCost()/h.Cost)

	// Equi-depth over expected matches — the classic heuristic — for
	// contrast.
	ed, err := probsyn.EquiDepthHistogram(links, probsyn.SSRE, probsyn.Params{C: 0.5}, B)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("equi-depth heuristic:            expected error %.4f (%.2fx optimal)\n",
		ed.Cost, ed.Cost/h.Cost)

	// Wavelets: the SSE-optimal synopsis and a restricted SAE synopsis.
	syn, rep, err := probsyn.SSEWavelet(links, B)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d-term SSE wavelet: captures %.2f%% of reducible energy\n",
		syn.B(), 100-rep.ErrorPercent())
	// The restricted DP runs on the shared execution engine: with
	// WithParallelism its level sweeps use every core, and the synopsis is
	// bit-identical to a serial build.
	rs, err := probsyn.Build(links, probsyn.SAE, 12, c,
		probsyn.WithWavelet(), probsyn.WithParallelism(0))
	if err != nil {
		log.Fatal(err)
	}
	rsyn := rs.(*probsyn.WaveletSynopsis)
	fmt.Printf("12-term restricted SAE wavelet: expected error %.2f, retained indices %v\n",
		rsyn.Cost, rsyn.Indices)
}
