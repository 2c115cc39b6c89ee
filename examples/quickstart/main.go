// Quickstart: build histogram and wavelet synopses over a small uncertain
// relation in the value pdf model, and compare them against the exact
// expected frequencies.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"probsyn"
)

func main() {
	// A 16-item relation where each item's frequency is uncertain: items
	// 0-7 hover around 10, items 8-11 around 2, items 12-15 around 25.
	vp := &probsyn.ValuePDF{N: 16, Items: make([]probsyn.ItemPDF, 16)}
	level := func(base float64) probsyn.ItemPDF {
		return probsyn.ItemPDF{Entries: []probsyn.FreqProb{
			{Freq: base - 1, Prob: 0.25},
			{Freq: base, Prob: 0.5},
			{Freq: base + 1, Prob: 0.2},
			// remaining 0.05: the reading is missing (frequency 0)
		}}
	}
	for i := 0; i < 16; i++ {
		switch {
		case i < 8:
			vp.Items[i] = level(10)
		case i < 12:
			vp.Items[i] = level(2)
		default:
			vp.Items[i] = level(25)
		}
	}
	if err := vp.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== expected frequencies ==")
	for i, e := range vp.ExpectedFreqs() {
		fmt.Printf("item %2d: E[g] = %.2f\n", i, e)
	}

	// A 3-bucket histogram minimizing expected sum-squared error (the
	// paper's Eq. 5 objective).
	hs, err := probsyn.Build(vp, probsyn.SSE, 3)
	if err != nil {
		log.Fatal(err)
	}
	h := hs.(*probsyn.Histogram)
	fmt.Printf("\n== optimal 3-bucket SSE histogram (expected error %.3f) ==\n", h.Cost)
	for _, b := range h.Buckets {
		fmt.Printf("items [%2d..%2d] ≈ %6.2f  (bucket cost %.3f)\n", b.Start, b.End, b.Rep, b.Cost)
	}

	// The same budget under a relative-error objective can bucket
	// differently: small frequencies matter more.
	hrs, err := probsyn.Build(vp, probsyn.SARE, 3, probsyn.WithParams(probsyn.Params{C: 0.5}))
	if err != nil {
		log.Fatal(err)
	}
	hr := hrs.(*probsyn.Histogram)
	fmt.Printf("\n== optimal 3-bucket SARE histogram (expected error %.3f) ==\n", hr.Cost)
	for _, b := range hr.Buckets {
		fmt.Printf("items [%2d..%2d] ≈ %6.2f\n", b.Start, b.End, b.Rep)
	}

	// A 4-coefficient wavelet synopsis under expected SSE (Theorem 7).
	syn, rep, err := probsyn.SSEWavelet(vp, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== 4-term SSE wavelet synopsis ==\n")
	fmt.Printf("expected SSE %.3f (irreducible variance %.3f, dropped energy %.2f%%)\n",
		rep.ExpectedSSE, rep.VarianceFloor, rep.ErrorPercent())
	for i := 0; i < 16; i++ {
		fmt.Printf("item %2d: wavelet estimate %6.2f, histogram estimate %6.2f\n",
			i, syn.Estimate(i), h.Estimate(i))
	}

	// Both families share one Synopsis interface, so they can be queried,
	// serialized, and reloaded uniformly. The binary codec round-trips a
	// synopsis exactly; a saved file can be reloaded without knowing which
	// family produced it.
	fmt.Printf("\n== shared synopsis layer ==\n")
	for _, s := range []probsyn.Synopsis{h, syn} {
		blob, err := probsyn.MarshalSynopsis(s)
		if err != nil {
			log.Fatal(err)
		}
		back, err := probsyn.UnmarshalSynopsis(blob)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%T: %d terms, expected error %.3f, %d bytes on the wire, "+
			"range-sum[0..15] %.2f == %.2f after reload\n",
			s, s.Terms(), s.ErrorCost(), len(blob), s.RangeSum(0, 15), back.RangeSum(0, 15))
	}
}
