// Package ptest provides shared test fixtures for the synopsis packages:
// small random instances of every probabilistic data model, and exact
// expected-error computation by exhaustive possible-world enumeration.
// It is imported only from _test files.
package ptest

import (
	"math"
	"math/rand"

	"probsyn/internal/metric"
	"probsyn/internal/pdata"
)

// RandomBasic returns a basic-model instance with m tuples over [0, n).
func RandomBasic(rng *rand.Rand, n, m int) *pdata.Basic {
	b := &pdata.Basic{N: n, Tuples: make([]pdata.BasicTuple, m)}
	for k := range b.Tuples {
		b.Tuples[k] = pdata.BasicTuple{Item: rng.Intn(n), Prob: rng.Float64()}
	}
	return b
}

// RandomTuplePDF returns a tuple-pdf instance with the given number of
// tuples, each holding 1..maxAlts alternatives with total mass < 1.
func RandomTuplePDF(rng *rand.Rand, n, tuples, maxAlts int) *pdata.TuplePDF {
	tp := &pdata.TuplePDF{N: n, Tuples: make([]pdata.Tuple, tuples)}
	for k := range tp.Tuples {
		alts := 1 + rng.Intn(maxAlts)
		t := pdata.Tuple{Alts: make([]pdata.Alternative, alts)}
		remaining := rng.Float64()
		for a := 0; a < alts; a++ {
			p := remaining / float64(alts-a)
			if a < alts-1 {
				p = remaining * rng.Float64()
			}
			t.Alts[a] = pdata.Alternative{Item: rng.Intn(n), Prob: p}
			remaining -= p
		}
		tp.Tuples[k] = t
	}
	return tp
}

// RandomValuePDF returns a value-pdf instance with up to maxVals explicit
// integer frequency values per item (frequencies in 0..3).
func RandomValuePDF(rng *rand.Rand, n, maxVals int) *pdata.ValuePDF {
	vp := &pdata.ValuePDF{N: n, Items: make([]pdata.ItemPDF, n)}
	for i := range vp.Items {
		vals := rng.Intn(maxVals + 1)
		remaining := rng.Float64()
		entries := make([]pdata.FreqProb, 0, vals)
		for v := 0; v < vals; v++ {
			p := remaining * rng.Float64()
			remaining -= p
			entries = append(entries, pdata.FreqProb{Freq: float64(rng.Intn(4)), Prob: p})
		}
		vp.Items[i] = pdata.ItemPDF{Entries: entries}
	}
	return vp
}

// RandomFractionalValuePDF is RandomValuePDF with non-integer frequencies,
// exercising the value pdf model's fractional-frequency capability.
func RandomFractionalValuePDF(rng *rand.Rand, n, maxVals int) *pdata.ValuePDF {
	vp := &pdata.ValuePDF{N: n, Items: make([]pdata.ItemPDF, n)}
	for i := range vp.Items {
		vals := 1 + rng.Intn(maxVals)
		remaining := rng.Float64()
		entries := make([]pdata.FreqProb, 0, vals)
		for v := 0; v < vals; v++ {
			p := remaining * rng.Float64()
			remaining -= p
			freq := math.Round(rng.Float64()*40) / 8 // quarter-steps, repeats likely
			entries = append(entries, pdata.FreqProb{Freq: freq, Prob: p})
		}
		vp.Items[i] = pdata.ItemPDF{Entries: entries}
	}
	return vp
}

// PerItemExpectedErrors returns E_W[err(g_i, rep)] for every item, by
// exhaustive enumeration.
func PerItemExpectedErrors(src pdata.Source, k metric.Kind, p metric.Params, rep float64) []float64 {
	n := src.Domain()
	out := make([]float64, n)
	src.EnumerateWorlds(func(freqs []float64, prob float64) bool {
		for i := 0; i < n; i++ {
			out[i] += prob * k.PointError(freqs[i], rep, p)
		}
		return true
	})
	return out
}

// ExactClairvoyantSSE computes, by enumeration, the paper's Eq. (5) bucket
// cost: E_W[Σ_{i∈[s,e]}(g_i − mean_W)^2] where mean_W is the per-world
// bucket mean.
func ExactClairvoyantSSE(src pdata.Source, s, e int) float64 {
	nb := float64(e - s + 1)
	total := 0.0
	src.EnumerateWorlds(func(freqs []float64, prob float64) bool {
		sum := 0.0
		for i := s; i <= e; i++ {
			sum += freqs[i]
		}
		mean := sum / nb
		for i := s; i <= e; i++ {
			d := freqs[i] - mean
			total += prob * d * d
		}
		return true
	})
	return total
}
