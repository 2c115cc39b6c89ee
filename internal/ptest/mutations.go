package ptest

import (
	"math"
	"math/rand"

	"probsyn/internal/pdata"
)

// Mutation is one live mutation: an append of Items when At < 0, else
// item At replaced by Items[0].
type Mutation struct {
	At    int
	Items []pdata.ItemPDF
}

// Apply applies the mutation to vp and returns the first item it changed
// and the items it overwrote (none for an append).
func (m Mutation) Apply(vp *pdata.ValuePDF) (from int, replaced []pdata.ItemPDF) {
	if m.At < 0 {
		from = vp.N
		for _, it := range m.Items {
			vp.Items = append(vp.Items, it.Clone())
		}
		vp.N = len(vp.Items)
		return from, nil
	}
	replaced = []pdata.ItemPDF{vp.Items[m.At]}
	vp.Items[m.At] = m.Items[0].Clone()
	return m.At, replaced
}

func item(entries ...float64) pdata.ItemPDF {
	it := pdata.ItemPDF{}
	for k := 0; k+1 < len(entries); k += 2 {
		it.Entries = append(it.Entries, pdata.FreqProb{Freq: entries[k], Prob: entries[k+1]})
	}
	return it
}

// GridMutations returns a value pdf of n >= 4 items over a sparse
// frequency grid and a mutation sequence that moves the grid every way a
// mutation can. Appends and updates list values below, between and above
// the grid's positive values. Updates replace the last entry listing a
// value: one the item lists twice, one an appended item brought, and one
// alongside values the same update adds. A negative zero comes and goes.
// Random appends and updates over a finer grid follow.
func GridMutations(rng *rand.Rand, n int) (*pdata.ValuePDF, []Mutation) {
	grid := []float64{2, 3, 5, 8}
	vp := &pdata.ValuePDF{N: n, Items: make([]pdata.ItemPDF, n)}
	for i := range vp.Items {
		vp.Items[i] = item(grid[rng.Intn(4)], 0.25, grid[rng.Intn(4)], 0.5)
	}
	vp.Items[0] = item(13, 0.5, 3, 0.25)               // the only 13
	vp.Items[n/2] = item(21, 0.25, 2, 0.25, 21, 0.125) // the only 21, twice
	negZero := math.Copysign(0, -1)
	at := 1 + rng.Intn(n-2)
	muts := []Mutation{
		{-1, []pdata.ItemPDF{item(1, 0.5)}},                            // below
		{-1, []pdata.ItemPDF{item(4, 0.25, 30, 0.25), item(2.5, 0.5)}}, // between, above
		{0, []pdata.ItemPDF{item(3, 1)}},                               // 13 goes
		{n / 2, []pdata.ItemPDF{item(0.5, 0.5, 40, 0.25)}},             // 21 goes, 0.5 and 40 come
		{n, []pdata.ItemPDF{item(3, 0.5)}},                             // the appended 1 goes
		{at, []pdata.ItemPDF{item(negZero, 0.5, 2, 0.25)}},
		{at, []pdata.ItemPDF{item(2, 1)}},
		{n - 1, []pdata.ItemPDF{item(6, 0.5)}}, // between, at the old tail
	}
	randItem := func() pdata.ItemPDF {
		var e []float64
		for k := 1 + rng.Intn(3); k > 0; k-- {
			e = append(e, float64(rng.Intn(49))/4, float64(1+rng.Intn(2))/8)
		}
		return item(e...)
	}
	size := n + 3
	for r := 0; r < 12; r++ {
		if rng.Intn(3) == 0 {
			items := make([]pdata.ItemPDF, 1+rng.Intn(3))
			for k := range items {
				items[k] = randItem()
			}
			muts = append(muts, Mutation{-1, items})
			size += len(items)
		} else {
			muts = append(muts, Mutation{rng.Intn(size), []pdata.ItemPDF{randItem()}})
		}
	}
	return vp, muts
}
