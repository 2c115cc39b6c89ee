package hist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probsyn/internal/metric"
	"probsyn/internal/numeric"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

// freshWeightedAbs is NewWeightedAbs over vp's pmf table: what a resumed
// oracle must equal.
func freshWeightedAbs(t testing.TB, vp *pdata.ValuePDF, kind metric.Kind, p metric.Params) *WeightedAbs {
	t.Helper()
	tab, err := pdata.NewPMFTable(vp, pdata.Support(vp))
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewWeightedAbs(tab, kind, p)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// sameBits reports the first index at which two float slices differ by
// bits, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func prefixBits(p numeric.Prefix) []float64 {
	out := make([]float64, p.Len()+1)
	for e := 0; e < p.Len(); e++ {
		out[e+1] = p.Range(0, e)
	}
	return out
}

// checkResumed holds a resumed oracle to the fresh build over the same
// data: grid, table, prefixes and margins bit for bit.
func checkResumed(t testing.TB, got, want *WeightedAbs, tag string) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("%s: domain %d, fresh %d", tag, got.n, want.n)
	}
	if len(got.tab) != len(want.tab) {
		t.Fatalf("%s: table holds %d floats, fresh %d", tag, len(got.tab), len(want.tab))
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"V", got.vs.Values, want.vs.Values},
		{"tab", got.tab, want.tab},
		{"tw", prefixBits(got.tw), prefixBits(want.tw)},
		{"ts", prefixBits(got.ts), prefixBits(want.ts)},
		{"margin", got.margin, want.margin},
	} {
		if i := sameBits(c.got, c.want); i >= 0 {
			t.Fatalf("%s: %s differs from the fresh build at %d (len %d vs %d)", tag, c.name, i, len(c.got), len(c.want))
		}
	}
}

// TestWeightedAbsResumeMovesTheGrid: a live oracle resumed over
// ptest.GridMutations — values added below, between and above the grid,
// last holders replaced, a negative zero — and over updates at every
// checkpoint edge equals NewWeightedAbs over the mutated data after each
// mutation, for SAE and SARE.
func TestWeightedAbsResumeMovesTheGrid(t *testing.T) {
	for _, kind := range []metric.Kind{metric.SAE, metric.SARE} {
		p := metric.Params{C: 0.5}
		for _, n := range []int{4, 70, 2*ckRows + 3} {
			t.Run(fmt.Sprintf("%v/n=%d", kind, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				vp, muts := ptest.GridMutations(rng, n)
				for _, at := range []int{0, ckRows - 1, ckRows, ckRows + 1, 2 * ckRows, n - 1} {
					if at < n {
						muts = append(muts, ptest.Mutation{At: at, Items: []pdata.ItemPDF{{Entries: []pdata.FreqProb{{Freq: float64(at%7) + 0.75, Prob: 0.5}}}}})
					}
				}
				live, err := NewLiveWeightedAbs(vp, kind, p)
				if err != nil {
					t.Fatal(err)
				}
				checkResumed(t, live, freshWeightedAbs(t, vp, kind, p), "build")
				for step, m := range muts {
					from, replaced := m.Apply(vp)
					if err := live.Resume(vp, from, replaced); err != nil {
						t.Fatal(err)
					}
					checkResumed(t, live, freshWeightedAbs(t, vp, kind, p), fmt.Sprintf("step %d (at %d)", step, m.At))
				}
			})
		}
	}
}

// TestWeightedAbsResumeRefusals: a frozen oracle, a shrinking domain and
// a start out of range are refused, and a refused call changes nothing.
func TestWeightedAbsResumeRefusals(t *testing.T) {
	vp, _ := ptest.GridMutations(rand.New(rand.NewSource(1)), 9)
	p := metric.Params{C: 0.5}
	frozen := freshWeightedAbs(t, vp, metric.SAE, p)
	if err := frozen.Resume(vp, vp.N, nil); err == nil {
		t.Fatal("a frozen oracle resumed")
	}
	live, err := NewLiveWeightedAbs(vp, metric.SAE, p)
	if err != nil {
		t.Fatal(err)
	}
	short := &pdata.ValuePDF{N: vp.N - 1, Items: vp.Items[:vp.N-1]}
	one := vp.Items[:1]
	for name, call := range map[string]func() error{
		"shrink":                  func() error { return live.Resume(short, short.N, nil) },
		"from -1":                 func() error { return live.Resume(vp, -1, one) },
		"replaced past the end":   func() error { return live.Resume(vp, vp.N, one) },
		"update without its item": func() error { return live.Resume(vp, 2, nil) },
	} {
		if err := call(); err == nil {
			t.Fatalf("%s accepted", name)
		}
		checkResumed(t, live, frozen, name)
	}
}

// FuzzWeightedAbsResume applies a fuzzed value pdf and mutation sequence
// to a live oracle and holds it, after every mutation, to NewWeightedAbs
// over the mutated data.
func FuzzWeightedAbsResume(f *testing.F) {
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 200, 3, 4, 100, 0, 7})
	f.Add([]byte{70, 9, 9, 9, 9, 0, 0, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1, 3, 3, 3})
	f.Add([]byte{1, 31, 31, 31, 0, 31, 1, 200, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// An item lists one to three frequencies on a quarter grid, code
		// 31 a negative zero, with masses in eighths summing to <= 1.
		randItem := func() pdata.ItemPDF {
			var it pdata.ItemPDF
			left := 8
			for k := 1 + next()%3; k > 0 && left > 0; k-- {
				code, mass := next()%32, 1+next()%min(4, left)
				freq := float64(code) / 4
				if code == 31 {
					freq = math.Copysign(0, -1)
				}
				left -= mass
				it.Entries = append(it.Entries, pdata.FreqProb{Freq: freq, Prob: float64(mass) / 8})
			}
			return it
		}
		kind := metric.SAE
		n := 1 + next()%80
		if n%2 == 0 {
			kind = metric.SARE
		}
		vp := &pdata.ValuePDF{N: n, Items: make([]pdata.ItemPDF, n)}
		for i := range vp.Items {
			vp.Items[i] = randItem()
		}
		p := metric.Params{C: 0.5}
		live, err := NewLiveWeightedAbs(vp, kind, p)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; len(data) > 0 && step < 16; step++ {
			var m ptest.Mutation
			if op := next(); op%4 == 0 {
				m.At = -1
				for k := 1 + op/4%3; k > 0; k-- {
					m.Items = append(m.Items, randItem())
				}
			} else {
				m.At = (op/4 + next()) % vp.N
				m.Items = []pdata.ItemPDF{randItem()}
			}
			from, replaced := m.Apply(vp)
			if err := live.Resume(vp, from, replaced); err != nil {
				t.Fatal(err)
			}
			checkResumed(t, live, freshWeightedAbs(t, vp, kind, p), fmt.Sprintf("step %d", step))
		}
	})
}
