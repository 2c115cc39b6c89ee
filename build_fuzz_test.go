package probsyn_test

import (
	"math"
	"testing"

	"probsyn"
	"probsyn/internal/hist"
)

// fuzzProbs and fuzzFreqs are the values a fuzzed source draws from: the
// probabilities straddle [0,1] and include the two non-finite ones; the
// frequencies are finite (overflow is another property), one negative.
var (
	fuzzProbs = [8]float64{-0.5, 0, 0.25, 0.5, 1, 1.5, math.NaN(), math.Inf(1)}
	fuzzFreqs = [8]float64{0, 0.5, 1, 2, 3, 7, 100, -1}
)

// fuzzSource decodes a small source and a budget from data:
//
//	data[0]  model (low 7 bits mod 3: basic, tuple pdf, value pdf); the
//	         high bit gives a value pdf one item pdf too few
//	data[1]  domain size n, a signed byte mod 17
//	data[2]  budget B, a signed byte mod 18
//	rest     basic: (item, prob) pairs; tuple pdf: per tuple a count k mod
//	         4, then k (item, prob) pairs; value pdf: per item a count k
//	         mod 4, then k (freq, prob) pairs
//
// Items are signed bytes, so they fall outside the domain as often as in
// it; prob and freq bytes index fuzzProbs and fuzzFreqs. A missing byte
// reads as 0.
func fuzzSource(data []byte) (probsyn.Source, int) {
	at := 0
	next := func() byte {
		if at >= len(data) {
			return 0
		}
		at++
		return data[at-1]
	}
	head := next()
	n := int(int8(next())) % 17
	B := int(int8(next())) % 18
	const maxPairs = 64
	switch (head & 0x7f) % 3 {
	case 0:
		src := &probsyn.Basic{N: n}
		for at < len(data) && len(src.Tuples) < maxPairs {
			src.Tuples = append(src.Tuples, probsyn.BasicTuple{Item: int(int8(next())), Prob: fuzzProbs[next()%8]})
		}
		return src, B
	case 1:
		src := &probsyn.TuplePDF{N: n}
		for at < len(data) && len(src.Tuples) < maxPairs {
			var t probsyn.Tuple
			for k := next() % 4; k > 0; k-- {
				t.Alts = append(t.Alts, probsyn.Alternative{Item: int(int8(next())), Prob: fuzzProbs[next()%8]})
			}
			src.Tuples = append(src.Tuples, t)
		}
		return src, B
	default:
		items := max(n, 0)
		if head&0x80 != 0 && items > 0 {
			items--
		}
		src := &probsyn.ValuePDF{N: n, Items: make([]probsyn.ItemPDF, items)}
		for i := range src.Items {
			for k := next() % 4; k > 0; k-- {
				src.Items[i].Entries = append(src.Items[i].Entries, probsyn.FreqProb{Freq: fuzzFreqs[next()%8], Prob: fuzzProbs[next()%8]})
			}
		}
		return src, B
	}
}

// FuzzBuildSources: every public builder answers any small source and
// budget with a synopsis or an error, never a panic. A source that breaks
// its model's rules is an error everywhere; a valid one at a budget >= 1
// builds everywhere (a two-way merge needs two items and two buckets). A
// histogram's reported cost is what the unsharded oracle prices its
// buckets at, merged or approximate ones included.
func FuzzBuildSources(f *testing.F) {
	for _, seed := range [][]byte{
		{1, 4, 2, 1, 7, 3},       // tuple item out of range
		{1, 4, 2, 1, 0xff, 3},    // tuple negative item
		{1, 4, 2, 1, 1, 5},       // tuple probability above 1
		{1, 4, 2, 1, 1, 6},       // tuple probability NaN
		{1, 4, 2, 2, 1, 4, 2, 3}, // tuple mass above 1
		{1, 0, 2},                // tuple empty domain
		{0, 4, 2, 4, 3},          // basic item out of range
		{0, 4, 2, 7, 3},          // basic item far out of range
		{0, 4, 2, 1, 0},          // basic probability below 0
		{0, 0xff, 2},             // basic negative domain
		{2, 4, 2, 1, 2, 5},       // value probability above 1
		{2, 4, 2, 2, 2, 4, 3, 3}, // value mass above 1
		{2, 4, 2, 1, 7, 3},       // value negative frequency
		{0x82, 4, 2},             // value item count
		{2, 0, 2},                // value empty domain
		{2, 4, 0xfe, 1, 2, 3},    // negative budget
		{2, 8, 3, 1, 2, 4, 2, 5, 3, 6, 2, 1, 1, 4, 2, 3, 3}, // valid
		{1, 16, 17, 2, 0, 3, 15, 2, 1, 9, 4, 3, 5, 2, 7, 3}, // valid, B > n
		{1, 4, 2, 3, 0, 2, 1, 2, 2, 2},                      // one tuple on items 0, 1 and 2: it straddles the two-way split
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, B := fuzzSource(data)
		valid := src.Validate() == nil
		check := func(name string, ok bool, err error, builds bool) {
			t.Helper()
			switch {
			case err == nil && !ok:
				t.Fatalf("%s: nil synopsis and nil error", name)
			case err == nil && !valid:
				t.Fatalf("%s accepted an invalid source", name)
			case err != nil && valid && builds:
				t.Fatalf("%s refused a valid source at B=%d: %v", name, B, err)
			}
		}
		price := func(name string, m probsyn.Metric, syn probsyn.Synopsis) {
			t.Helper()
			h, ok := syn.(*probsyn.Histogram)
			if !ok {
				return
			}
			o, err := hist.NewOracle(src, m, probsyn.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			want, err := hist.FromBoundaries(o, h.Boundaries())
			if err != nil {
				t.Fatal(err)
			}
			if !near(h.ErrorCost(), want.Cost) {
				t.Fatalf("%s reports %v, its buckets cost %v", name, h.ErrorCost(), want.Cost)
			}
		}
		for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SAE} {
			for name, opts := range map[string][]probsyn.BuildOption{"Build": nil, "Build(WithEps)": {probsyn.WithEps(0.5)}} {
				syn, err := probsyn.Build(src, m, B, opts...)
				check(name, syn != nil, err, B >= 1)
				price(name, m, syn)
			}
			res, err := probsyn.BuildSharded(src, m, B, 2)
			check("BuildSharded(k=2)", res != nil, err, B >= 2 && src.Domain() >= 2)
			if err == nil {
				price("BuildSharded(k=2)", m, res.Synopsis)
			}
			h, err := probsyn.EquiDepthHistogram(src, m, probsyn.DefaultParams(), B)
			check("EquiDepthHistogram", h != nil, err, B >= 1)
			if err == nil {
				price("EquiDepthHistogram", m, h)
			}
		}
		syn, err := probsyn.Build(src, probsyn.SAE, B, probsyn.WithWavelet())
		check("Build(SAE, WithWavelet)", syn != nil, err, B >= 1)
		fr, err := probsyn.BuildSweep(src, probsyn.SAE, B)
		if err == nil {
			syn, err = fr.Synopsis(fr.Bmax())
			check("BuildSweep(SAE).Synopsis", syn != nil, err, true)
			price("BuildSweep(SAE)", probsyn.SAE, syn)
		} else {
			check("BuildSweep(SAE)", false, err, B >= 1)
		}
		wsyn, rep, err := probsyn.SSEWavelet(src, B)
		check("SSEWavelet", wsyn != nil && rep != nil, err, B >= 1)
	})
}
