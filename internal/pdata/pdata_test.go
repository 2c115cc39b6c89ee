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
	// item 2: Pr[g<=0] = 5/12, Pr[g<=1] = 5/12+1/3 = 3/4, Pr[g<=2] = 1.
	if got := tab.CDF(1, 0); math.Abs(got-5.0/12) > 1e-12 {
		t.Errorf("CDF(1,0) = %v, want 5/12", got)
	}
	if got := tab.CDF(1, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("CDF(1,1) = %v, want 3/4", got)
	}
	if got := tab.CDF(1, 2); math.Abs(got-1) > 1e-12 {
		t.Errorf("CDF(1,2) = %v, want 1", got)
	}
	if got := tab.CDF(1, -1); got != 0 {
		t.Errorf("CDF(1,-1) = %v, want 0", got)
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

func TestCountWorlds(t *testing.T) {
	if c, err := CountWorlds(exampleBasic(), 1e6); err != nil || c != 16 {
		t.Errorf("basic count = %v err %v, want 16", c, err)
	}
	// tuple pdf: both tuples have mass < 1, so branches = 3 each.
	if c, err := CountWorlds(exampleTuplePDF(), 1e6); err != nil || c != 9 {
		t.Errorf("tuple count = %v err %v, want 9", c, err)
	}
	if c, err := CountWorlds(exampleValuePDF(), 1e6); err != nil || c != 12 {
		t.Errorf("value count = %v err %v, want 12", c, err)
	}
	big := &Basic{N: 2, Tuples: make([]BasicTuple, 100)}
	for i := range big.Tuples {
		big.Tuples[i] = BasicTuple{Item: 0, Prob: 0.5}
	}
	if _, err := CountWorlds(big, 1e6); err != ErrTooManyWorlds {
		t.Errorf("expected ErrTooManyWorlds, got %v", err)
	}
}

func TestTupleHelpers(t *testing.T) {
	tp := exampleTuplePDF()
	t0 := &tp.Tuples[0]
	if got := t0.TotalProb(); math.Abs(got-5.0/6) > 1e-12 {
		t.Errorf("TotalProb = %v, want 5/6", got)
	}
	lo, hi, ok := t0.Span()
	if !ok || lo != 0 || hi != 1 {
		t.Errorf("Span = (%d,%d,%v), want (0,1,true)", lo, hi, ok)
	}
	empty := Tuple{}
	if _, _, ok := empty.Span(); ok {
		t.Error("empty tuple Span should report !ok")
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
