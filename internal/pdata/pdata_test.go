package pdata

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestBasicValidate(t *testing.T) {
	good := exampleBasic()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	cases := []struct {
		name string
		b    Basic
	}{
		{"zero domain", Basic{N: 0}},
		{"item out of range", Basic{N: 2, Tuples: []BasicTuple{{Item: 2, Prob: 0.5}}}},
		{"negative item", Basic{N: 2, Tuples: []BasicTuple{{Item: -1, Prob: 0.5}}}},
		{"probability > 1", Basic{N: 2, Tuples: []BasicTuple{{Item: 0, Prob: 1.5}}}},
		{"negative probability", Basic{N: 2, Tuples: []BasicTuple{{Item: 0, Prob: -0.5}}}},
	}
	for _, c := range cases {
		if err := c.b.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid model", c.name)
		}
	}
}

func TestTuplePDFValidate(t *testing.T) {
	if err := exampleTuplePDF().Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := TuplePDF{N: 3, Tuples: []Tuple{
		{Alts: []Alternative{{Item: 0, Prob: 0.7}, {Item: 1, Prob: 0.7}}},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("tuple mass > 1 accepted")
	}
	badItem := TuplePDF{N: 3, Tuples: []Tuple{{Alts: []Alternative{{Item: 5, Prob: 0.1}}}}}
	if err := badItem.Validate(); err == nil {
		t.Error("out-of-domain alternative accepted")
	}
}

func TestValuePDFValidate(t *testing.T) {
	if err := exampleValuePDF().Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	wrongLen := ValuePDF{N: 3, Items: make([]ItemPDF, 2)}
	if err := wrongLen.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	overMass := ValuePDF{N: 1, Items: []ItemPDF{
		{Entries: []FreqProb{{Freq: 1, Prob: 0.8}, {Freq: 2, Prob: 0.8}}},
	}}
	if err := overMass.Validate(); err == nil {
		t.Error("mass > 1 accepted")
	}
	negFreq := ValuePDF{N: 1, Items: []ItemPDF{
		{Entries: []FreqProb{{Freq: -1, Prob: 0.5}}},
	}}
	if err := negFreq.Validate(); err == nil {
		t.Error("negative frequency accepted")
	}
}

// TestValidateNumbers: all three models (and a lone item pdf) admit
// probabilities and frequencies by the same two rules. NaN is the case
// that matters: it fails every comparison, so a check written as "reject
// when below or above" lets it through.
func TestValidateNumbers(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	models := []struct {
		name string
		// validate checks a model holding one entry of probability p (and
		// frequency f, where the model has frequencies) next to one of
		// probability rest.
		validate func(p, f, rest float64) error
		freqs    bool
	}{
		{"basic", func(p, _, rest float64) error {
			return (&Basic{N: 2, Tuples: []BasicTuple{{Item: 0, Prob: p}, {Item: 1, Prob: rest}}}).Validate()
		}, false},
		{"tuple", func(p, _, rest float64) error {
			return (&TuplePDF{N: 2, Tuples: []Tuple{{Alts: []Alternative{{Item: 0, Prob: p}, {Item: 1, Prob: rest}}}}}).Validate()
		}, false},
		{"item", func(p, f, rest float64) error {
			return (&ItemPDF{Entries: []FreqProb{{Freq: f, Prob: p}, {Freq: 1, Prob: rest}}}).Validate()
		}, true},
		{"value", func(p, f, rest float64) error {
			return (&ValuePDF{N: 2, Items: []ItemPDF{{}, {Entries: []FreqProb{{Freq: f, Prob: p}, {Freq: 1, Prob: rest}}}}}).Validate()
		}, true},
	}
	cases := []struct {
		name       string
		p, f, rest float64
		ok         bool
		mass       bool // only the models with a per-tuple or per-item mass reject it
		freq       bool // only the models with frequencies can tell
	}{
		{name: "plain", p: 0.5, f: 2, rest: 0.25, ok: true},
		{name: "bounds", p: 1, f: 0, rest: 0, ok: true},
		{name: "within tolerance", p: 1 + probTol/2, f: 1, rest: -probTol / 2, ok: true},
		{name: "NaN probability", p: nan, f: 1},
		{name: "+Inf probability", p: inf, f: 1},
		{name: "-Inf probability", p: -inf, f: 1},
		{name: "probability -0.1", p: -0.1, f: 1},
		{name: "probability 1.1", p: 1.1, f: 1},
		{name: "mass 1+2tol", p: 0.5 + probTol, f: 1, rest: 0.5 + probTol, mass: true},
		{name: "NaN frequency", p: 0.5, f: nan, freq: true},
		{name: "+Inf frequency", p: 0.5, f: inf, freq: true},
		{name: "-Inf frequency", p: 0.5, f: -inf, freq: true},
		{name: "frequency -0.1", p: 0.5, f: -0.1, freq: true},
		{name: "largest frequency", p: 0.5, f: math.MaxFloat64, ok: true},
	}
	for _, m := range models {
		for _, c := range cases {
			want := c.ok || c.freq && !m.freqs || c.mass && m.name == "basic"
			if err := m.validate(c.p, c.f, c.rest); (err == nil) != want {
				t.Errorf("%s, %s: Validate = %v, want accepted = %v", m.name, c.name, err, want)
			}
		}
	}
	err := (&ValuePDF{N: 2, Items: []ItemPDF{{}, {Entries: []FreqProb{{Freq: nan, Prob: 0.5}}}}}).Validate()
	if err == nil || !strings.Contains(err.Error(), "item 1") {
		t.Errorf("value pdf error %v does not name item 1", err)
	}
}

func TestMCounts(t *testing.T) {
	if got := exampleBasic().M(); got != 4 {
		t.Errorf("basic M = %d, want 4", got)
	}
	if got := exampleTuplePDF().M(); got != 4 {
		t.Errorf("tuple M = %d, want 4", got)
	}
	if got := exampleValuePDF().M(); got != 4 {
		t.Errorf("value M = %d, want 4", got)
	}
}

func TestBasicToTuplePDFPreservesWorlds(t *testing.T) {
	b := exampleBasic()
	checkWorlds(t, collectWorlds(t, b.TuplePDF()), collectWorlds(t, b))
}

func TestEnumerationEarlyStop(t *testing.T) {
	calls := 0
	exampleBasic().EnumerateWorlds(func(_ []float64, _ float64) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("enumeration visited %d worlds after early stop, want 3", calls)
	}
}

func TestDeterministicWrapper(t *testing.T) {
	freqs := []float64{2, 0, 3.5}
	vp := Deterministic(freqs)
	if err := vp.Validate(); err != nil {
		t.Fatal(err)
	}
	worlds := 0
	vp.EnumerateWorlds(func(got []float64, prob float64) bool {
		worlds++
		if prob != 1 {
			t.Errorf("deterministic world probability %v, want 1", prob)
		}
		for i := range freqs {
			if got[i] != freqs[i] {
				t.Errorf("freqs[%d] = %v, want %v", i, got[i], freqs[i])
			}
		}
		return true
	})
	if worlds != 1 {
		t.Fatalf("deterministic input has %d worlds, want 1", worlds)
	}
}

// Moments must agree with exact expectation over enumerated worlds, for
// randomized instances of all three models.
func TestMomentsAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		for _, src := range []Source{
			randomBasic(rng, 4, 6), randomTuplePDF(rng, 4, 4, 3), randomValuePDF(rng, 4, 3),
		} {
			n := src.Domain()
			mean := make([]float64, n)
			meanSq := make([]float64, n)
			src.EnumerateWorlds(func(freqs []float64, prob float64) bool {
				for i := 0; i < n; i++ {
					mean[i] += prob * freqs[i]
					meanSq[i] += prob * freqs[i] * freqs[i]
				}
				return true
			})
			mom := MomentsOf(src)
			for i := 0; i < n; i++ {
				if math.Abs(mom.Mean[i]-mean[i]) > 1e-9 {
					t.Fatalf("%T trial %d: Mean[%d] = %v, enum %v", src, trial, i, mom.Mean[i], mean[i])
				}
				if math.Abs(mom.MeanSq[i]-meanSq[i]) > 1e-9 {
					t.Fatalf("%T trial %d: MeanSq[%d] = %v, enum %v", src, trial, i, mom.MeanSq[i], meanSq[i])
				}
				wantVar := meanSq[i] - mean[i]*mean[i]
				if math.Abs(mom.Var[i]-wantVar) > 1e-9 {
					t.Fatalf("%T trial %d: Var[%d] = %v, enum %v", src, trial, i, mom.Var[i], wantVar)
				}
			}
		}
	}
}

// The induced value pdf of a tuple pdf must match the marginal frequency
// distribution of each item computed by exhaustive enumeration.
func TestInducedValuePDFAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		tp := randomTuplePDF(rng, 4, 4, 3)
		iv := InducedValuePDF(tp)
		n := tp.Domain()
		marg := make([]map[float64]float64, n)
		for i := range marg {
			marg[i] = make(map[float64]float64)
		}
		tp.EnumerateWorlds(func(freqs []float64, prob float64) bool {
			for i := 0; i < n; i++ {
				marg[i][freqs[i]] += prob
			}
			return true
		})
		for i := 0; i < n; i++ {
			got := map[float64]float64{0: iv.Items[i].ZeroProb()}
			for _, e := range iv.Items[i].Entries {
				if e.Freq != 0 {
					got[e.Freq] += e.Prob
				}
			}
			for v, p := range marg[i] {
				if math.Abs(got[v]-p) > 1e-9 {
					t.Fatalf("trial %d item %d: Pr[g=%v] induced %v, enum %v", trial, i, v, got[v], p)
				}
			}
		}
	}
}

func TestPoissonBinomialPMF(t *testing.T) {
	pmf := poissonBinomialPMF([]float64{0.5, 0.5})
	want := []float64{0.25, 0.5, 0.25}
	for i := range want {
		if math.Abs(pmf[i]-want[i]) > 1e-12 {
			t.Errorf("pmf[%d] = %v, want %v", i, pmf[i], want[i])
		}
	}
	if pmf := poissonBinomialPMF(nil); len(pmf) != 1 || pmf[0] != 1 {
		t.Errorf("empty pmf = %v, want [1]", pmf)
	}
}

func TestSupportValuePDF(t *testing.T) {
	vs := Support(exampleValuePDF())
	want := []float64{0, 1, 2}
	if len(vs.Values) != len(want) {
		t.Fatalf("support = %v, want %v", vs.Values, want)
	}
	for i := range want {
		if vs.Values[i] != want[i] {
			t.Fatalf("support = %v, want %v", vs.Values, want)
		}
	}
}

func TestSupportBasicAndTuple(t *testing.T) {
	// Two tuples can both choose item 1, so multiplicity reaches 2.
	vsB := Support(exampleBasic())
	if got := vsB.Values; len(got) != 3 || got[2] != 2 {
		t.Errorf("basic support = %v, want [0 1 2]", got)
	}
	vsT := Support(exampleTuplePDF())
	if got := vsT.Values; len(got) != 3 || got[2] != 2 {
		t.Errorf("tuple support = %v, want [0 1 2]", got)
	}
}

func TestValueSetIndex(t *testing.T) {
	vs := ValueSet{Values: []float64{0, 1, 2.5, 7}}
	if vs.Index(2.5) != 2 || vs.Index(3) != -1 || vs.Index(0) != 0 {
		t.Error("Index misbehaves")
	}
	if vs.Len() != 4 {
		t.Error("Len misbehaves")
	}
}

func TestPMFTable(t *testing.T) {
	vp := exampleValuePDF()
	vs := Support(vp)
	tab, err := NewPMFTable(vp, vs)
	if err != nil {
		t.Fatal(err)
	}
	if tab.N() != 3 {
		t.Fatalf("N = %d", tab.N())
	}
	// item 2: Pr[g=0] = 5/12 (the implicit zero mass), Pr[g=1] = 1/3, Pr[g=2] = 1/4.
	for j, want := range []float64{5.0 / 12, 1.0 / 3, 0.25} {
		if got := tab.P[1][j]; math.Abs(got-want) > 1e-12 {
			t.Errorf("P[1][%d] = %v, want %v", j, got, want)
		}
	}
	for i, row := range tab.P {
		sum := 0.0
		for _, p := range row {
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("P[%d] sums to %v, want 1", i, sum)
		}
	}
}

func TestPMFTableMissingValue(t *testing.T) {
	vp := exampleValuePDF()
	if _, err := NewPMFTable(vp, ValueSet{Values: []float64{0, 1}}); err == nil {
		t.Fatal("expected error for frequency outside ValueSet")
	}
}

func TestSampleMeansConvergeToExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, src := range []Source{exampleBasic(), exampleTuplePDF(), exampleValuePDF()} {
		n := src.Domain()
		want := src.ExpectedFreqs()
		sums := make([]float64, n)
		freqs := make([]float64, n)
		const samples = 200000
		for s := 0; s < samples; s++ {
			src.SampleInto(rng, freqs)
			for i := range sums {
				sums[i] += freqs[i]
			}
		}
		for i := range sums {
			got := sums[i] / samples
			if math.Abs(got-want[i]) > 0.01 {
				t.Errorf("%T: sample mean[%d] = %v, want %v", src, i, got, want[i])
			}
		}
	}
}

func TestTupleHelpers(t *testing.T) {
	tp := exampleTuplePDF()
	t0 := &tp.Tuples[0]
	if got := t0.TotalProb(); math.Abs(got-5.0/6) > 1e-12 {
		t.Errorf("TotalProb = %v, want 5/6", got)
	}
}

func TestAsValuePDF(t *testing.T) {
	vp := exampleValuePDF()
	if AsValuePDF(vp) != vp {
		t.Error("AsValuePDF of a ValuePDF must be the identity")
	}
	// Basic -> induced marginals must match enumeration marginals.
	b := exampleBasic()
	iv := AsValuePDF(b)
	margE := make([]float64, 3)
	b.EnumerateWorlds(func(freqs []float64, prob float64) bool {
		for i := range margE {
			margE[i] += prob * freqs[i]
		}
		return true
	})
	for i, want := range margE {
		if got := iv.Items[i].Mean(); math.Abs(got-want) > 1e-12 {
			t.Errorf("induced mean[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestAppendRun(t *testing.T) {
	// Float variables, not constants: their sums round as the code's do.
	p1, p2, p3 := .1, .2, .3
	cases := []struct {
		name string
		alts []Alternative
		want []Alternative
	}{
		{"empty tuple", nil, nil},
		{"one alternative", []Alternative{{3, .5}}, []Alternative{{3, .5}}},
		{"zero-probability alternatives go", []Alternative{{3, 0}, {1, .25}, {2, 0}}, []Alternative{{1, .25}}},
		{"sorted by item", []Alternative{{5, .1}, {0, .2}, {3, .3}}, []Alternative{{0, .2}, {3, .3}, {5, .1}}},
		// 0.1+0.2+0.3 and 0.3+0.2+0.1 differ in the last bit: the merged
		// mass is the input-order sum.
		{"same item merged in input order", []Alternative{{2, .1}, {0, .05}, {2, .2}, {2, .3}}, []Alternative{{0, .05}, {2, p1 + p2 + p3}}},
		{"all one item", []Alternative{{1, .3}, {1, .2}, {1, .1}}, []Alternative{{1, p3 + p2 + p1}}},
	}
	kept := Alternative{Item: 9, Prob: .9}
	for _, c := range cases {
		tup := Tuple{Alts: c.alts}
		for _, dst := range [][]Alternative{nil, {kept}} {
			got := tup.AppendRun(dst)
			if len(got) != len(dst)+len(c.want) || (len(dst) == 1 && got[0] != kept) {
				t.Fatalf("%s: AppendRun(%v) = %v, want %v appended", c.name, dst, got, c.want)
			}
			for k, w := range c.want {
				if g := got[len(dst)+k]; g.Item != w.Item || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
					t.Fatalf("%s: AppendRun(%v) = %v, want %v appended", c.name, dst, got, c.want)
				}
			}
		}
	}
}

// MomentsOf and InducedValuePDF read a tuple through AppendRun where they
// used to build a map per multi-alternative tuple. The map-based forms are
// kept here as references: every float must match them bit for bit (each
// item's slot receives one addition per tuple, tuples in input order).
func TestTupleMomentsMatchMapMerge(t *testing.T) {
	refMoments := func(tp *TuplePDF) (mean, vr []float64) {
		mean, vr = make([]float64, tp.N), make([]float64, tp.N)
		for k := range tp.Tuples {
			perItem := make(map[int]float64)
			for _, a := range tp.Tuples[k].Alts {
				perItem[a.Item] += a.Prob
			}
			for item, p := range perItem {
				mean[item] += p
				vr[item] += p * (1 - p)
			}
		}
		return mean, vr
	}
	refBernoullis := func(tp *TuplePDF) [][]float64 {
		perItem := make([][]float64, tp.N)
		for k := range tp.Tuples {
			merged := make(map[int]float64)
			for _, a := range tp.Tuples[k].Alts {
				if a.Prob > 0 {
					merged[a.Item] += a.Prob
				}
			}
			for item, p := range merged {
				perItem[item] = append(perItem[item], p)
			}
		}
		return perItem
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 50; trial++ {
		// Few items and many alternatives, so tuples repeat items; some
		// alternatives zeroed.
		tp := randomTuplePDF(rng, 5, 12, 6)
		for k := range tp.Tuples {
			if alts := tp.Tuples[k].Alts; rng.Intn(3) == 0 {
				alts[rng.Intn(len(alts))].Prob = 0
			}
		}
		mom := MomentsOf(tp)
		mean, vr := refMoments(tp)
		for i := 0; i < tp.N; i++ {
			if !same(mom.Mean[i], mean[i]) || !same(mom.Var[i], vr[i]) || !same(mom.MeanSq[i], vr[i]+mean[i]*mean[i]) {
				t.Fatalf("trial %d item %d: moments (%v, %v, %v), map-merged reference (%v, %v)", trial, i, mom.Mean[i], mom.Var[i], mom.MeanSq[i], mean[i], vr[i])
			}
		}
		iv := InducedValuePDF(tp)
		for i, probs := range refBernoullis(tp) {
			var want []FreqProb
			for v, p := range poissonBinomialPMF(probs) {
				if p > 0 {
					want = append(want, FreqProb{Freq: float64(v), Prob: p})
				}
			}
			got := iv.Items[i].Entries
			if len(got) != len(want) {
				t.Fatalf("trial %d item %d: induced pdf %v, reference %v", trial, i, got, want)
			}
			for k := range want {
				if got[k].Freq != want[k].Freq || !same(got[k].Prob, want[k].Prob) {
					t.Fatalf("trial %d item %d: induced pdf %v, reference %v", trial, i, got, want)
				}
			}
		}
	}
}

// No allocation per tuple: the moments are three arrays and one scratch run.
func TestTupleMomentsAllocations(t *testing.T) {
	tp := randomTuplePDF(rand.New(rand.NewSource(3)), 64, 2048, 4)
	if allocs := testing.AllocsPerRun(10, func() { MomentsOf(tp) }); allocs > 8 {
		t.Fatalf("MomentsOf on 2048 tuples: %v allocations, want a handful", allocs)
	}
}
