// Live maintenance: build both synopsis families as live frontiers over
// an uncertain relation, absorb a batch of appended items and an
// in-place correction, and print the before/after cost frontiers. Every
// extraction from a live frontier is byte-identical to a from-scratch
// BuildSweep over the current data. The histogram's append costs a
// fraction of one (its retained DP table runs only the new columns); the
// wavelet frontier runs one fresh sweep per mutation.
//
// Run with: go run ./examples/live
package main

import (
	"fmt"
	"log"

	"probsyn"
)

func main() {
	// A 24-item relation (three plateaus of uncertain readings).
	vp := &probsyn.ValuePDF{N: 24, Items: make([]probsyn.ItemPDF, 24)}
	level := func(base float64) probsyn.ItemPDF {
		return probsyn.ItemPDF{Entries: []probsyn.FreqProb{
			{Freq: base - 1, Prob: 0.25},
			{Freq: base, Prob: 0.5},
			{Freq: base + 1, Prob: 0.2},
		}}
	}
	for i := 0; i < 24; i++ {
		switch {
		case i < 10:
			vp.Items[i] = level(8)
		case i < 18:
			vp.Items[i] = level(3)
		default:
			vp.Items[i] = level(20)
		}
	}
	// Item 4's reading is a single uncertain observation with an exactly
	// representable mean (0.5·8 = 4), which the correction below keeps.
	vp.Items[4] = probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: 8, Prob: 0.5}}}
	if err := vp.Validate(); err != nil {
		log.Fatal(err)
	}

	const B = 6
	hist, err := probsyn.BuildLive(vp, probsyn.SSE, B)
	if err != nil {
		log.Fatal(err)
	}
	wave, err := probsyn.BuildLive(vp, probsyn.SAE, B, probsyn.WithWavelet())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built live frontiers over n=%d (budgets 1..%d)\n", hist.Domain(), B)
	printCosts("histogram/SSE before", hist)
	printCosts("wavelet/SAE   before", wave)

	// A new shipment of readings arrives: eight items around frequency 12.
	batch := make([]probsyn.ItemPDF, 8)
	for i := range batch {
		batch[i] = level(12)
	}
	for _, live := range []probsyn.Maintainer{hist, wave} {
		if err := live.Append(batch); err != nil {
			log.Fatal(err)
		}
	}
	// And item 4's reading is corrected in place: the expected value is
	// preserved exactly (0.25·7 + 0.25·9 = 0.5·8 = 4), only the spread
	// changes. The histogram re-runs the DP columns from item 4 on; the
	// wavelet frontier sweeps the corrected data afresh.
	corrected := probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: 7, Prob: 0.25}, {Freq: 9, Prob: 0.25}}}
	for _, live := range []probsyn.Maintainer{hist, wave} {
		if err := live.Update(4, corrected); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("\nafter appending %d items and correcting item 4 (n=%d):\n", len(batch), hist.Domain())
	printCosts("histogram/SSE after ", hist)
	printCosts("wavelet/SAE   after ", wave)

	// The frontiers answer queries over the mutated data at once.
	syn, err := hist.Synopsis(B)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhistogram estimate for appended item %d: %.2f (true mean 12)\n",
		hist.Domain()-1, syn.Estimate(hist.Domain()-1))
}

func printCosts(tag string, fr probsyn.Maintainer) {
	fmt.Printf("%s:", tag)
	for b := 1; b <= fr.Bmax(); b++ {
		fmt.Printf(" b=%d:%.3g", b, fr.Cost(b))
	}
	fmt.Println()
}
