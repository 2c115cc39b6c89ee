package probsyn_test

// One verdict per option combination: Build, BuildSweep, BuildLive and
// BuildSharded resolve their options through one plan, so they must agree
// on what they accept — up to the documented per-entry-point rules, which
// wantAccept restates from DESIGN.md's table — and, where they accept,
// on the bytes.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/ptest"
)

// combo is one assignment of the options that can conflict. quantize and
// c are the options' arguments, or unset; eps is WithEps's argument, or 0
// for unset.
type combo struct {
	wavelet      bool
	metric       probsyn.Metric
	quantize     *int
	unrestricted bool
	eps          float64
	weights      bool
	c            *float64
}

func (c combo) String() string {
	q, sc := "-", "-"
	if c.quantize != nil {
		q = fmt.Sprint(*c.quantize)
	}
	if c.c != nil {
		sc = fmt.Sprint(*c.c)
	}
	return fmt.Sprintf("wavelet=%v/%v/quantize=%s/unrestricted=%v/eps=%v/weights=%v/c=%s",
		c.wavelet, c.metric, q, c.unrestricted, c.eps, c.weights, sc)
}

func (c combo) options(n int) []probsyn.BuildOption {
	var opts []probsyn.BuildOption
	if c.wavelet {
		opts = append(opts, probsyn.WithWavelet())
	}
	if c.quantize != nil {
		opts = append(opts, probsyn.WithQuantize(*c.quantize))
	}
	if c.unrestricted {
		opts = append(opts, probsyn.WithUnrestricted(1))
	}
	if c.eps != 0 {
		opts = append(opts, probsyn.WithEps(c.eps))
	}
	if c.c != nil {
		opts = append(opts, probsyn.WithParams(probsyn.Params{C: *c.c}))
	}
	if c.weights {
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + i%3)
		}
		opts = append(opts, probsyn.WithWorkloadWeights(w))
	}
	return opts
}

// The entry points. shardedOne is BuildSharded at k = 1, which must be
// Build; shardedTwo a real sharded build, whose verdict must match.
const (
	viaBuild = iota
	viaSweep
	viaLive
	viaShardedOne
	viaShardedTwo
	entryPoints
)

var entryNames = [entryPoints]string{"Build", "BuildSweep", "BuildLive", "BuildSharded(k=1)", "BuildSharded(k=2)"}

// finitePositive is the rule for a sanity constant and for eps.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// wantAccept is DESIGN.md's option-verdict table.
func wantAccept(c combo, entry int) bool {
	// Rules of the combination itself, the same at every entry point.
	if c.c != nil && c.metric.Relative() && !finitePositive(*c.c) {
		return false // max(c, |g|) divides every relative error
	}
	if c.wavelet {
		if c.weights || c.eps != 0 || (c.quantize != nil && c.unrestricted) {
			return false
		}
		if c.quantize != nil && (*c.quantize < 2 || c.metric == probsyn.SSE) {
			return false
		}
		if c.unrestricted && c.metric == probsyn.SSE {
			return false // the DP's point errors price stored values, not plain SSE
		}
	} else {
		if c.quantize != nil || c.unrestricted {
			return false
		}
		if c.weights && c.metric != probsyn.SSE && c.metric != probsyn.SSEFixed {
			return false
		}
		if c.eps != 0 && (!finitePositive(c.eps) || !c.metric.Cumulative()) {
			return false // Theorem 5 is for cumulative metrics, at an eps > 0
		}
	}
	// Rules of the entry point.
	switch {
	case c.eps != 0 && entry != viaBuild:
		return false // no frontier
	case c.wavelet && entry >= viaShardedOne:
		return false // a wavelet is not sharded, at any k
	}
	return true
}

func mustMarshal(t *testing.T, syn probsyn.Synopsis) []byte {
	t.Helper()
	blob, err := probsyn.MarshalSynopsis(syn)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// buildVia runs one entry point and returns the budget-B synopsis.
func buildVia(entry int, src probsyn.Source, m probsyn.Metric, B int, opts []probsyn.BuildOption) (probsyn.Synopsis, error) {
	var fr probsyn.Frontier
	var err error
	switch entry {
	case viaBuild:
		return probsyn.Build(src, m, B, opts...)
	case viaSweep:
		fr, err = probsyn.BuildSweep(src, m, B, opts...)
	case viaLive:
		fr, err = probsyn.BuildLive(src, m, B, opts...)
	default:
		res, err := probsyn.BuildSharded(src, m, B, 1+entry-viaShardedOne, opts...)
		if err != nil {
			return nil, err
		}
		return res.Synopsis, nil
	}
	if err != nil {
		return nil, err
	}
	return fr.Synopsis(min(B, fr.Bmax()))
}

func TestEntryPointsAgreeOnOptions(t *testing.T) {
	const n, B = 8, 3
	src := ptest.RandomValuePDF(rand.New(rand.NewSource(14)), n, 3)
	q := func(v int) *int { return &v }
	for _, wavelet := range []bool{false, true} {
		for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SSEFixed, probsyn.SAE, probsyn.SARE, probsyn.MAE} {
			for _, quantize := range []*int{nil, q(-1), q(0), q(1), q(4)} {
				for flags := 0; flags < 8; flags++ {
					eps := 0.0
					if flags&2 != 0 {
						eps = 0.5
					}
					checkCombo(t, combo{wavelet, m, quantize, flags&1 != 0, eps, flags&4 != 0, nil}, src, B)
				}
			}
		}
		// A sanity constant a relative metric cannot divide by, and an eps
		// that certifies nothing, are errors at every entry point.
		for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SAE, probsyn.SSRE, probsyn.SARE, probsyn.MARE} {
			for _, c := range []float64{0, -1, math.NaN(), math.Inf(1)} {
				checkCombo(t, combo{wavelet: wavelet, metric: m, c: &c}, src, B)
			}
			for _, eps := range []float64{math.NaN(), math.Inf(1)} {
				checkCombo(t, combo{wavelet: wavelet, metric: m, eps: eps}, src, B)
			}
		}
	}
}

func checkCombo(t *testing.T, c combo, src *probsyn.ValuePDF, B int) {
	t.Helper()
	opts := c.options(src.N)
	var blobs [entryPoints][]byte
	for entry := 0; entry < entryPoints; entry++ {
		syn, err := buildVia(entry, src, c.metric, B, opts)
		if want := wantAccept(c, entry); (err == nil) != want {
			t.Errorf("%v: %s accepted = %v (err %v), want %v", c, entryNames[entry], err == nil, err, want)
			continue
		}
		if err == nil {
			blobs[entry] = mustMarshal(t, syn)
		}
	}
	// Whoever accepts builds Build's bytes (a k=2 merge is another synopsis
	// than the unsharded one).
	ref := blobs[viaBuild]
	for entry := viaSweep; entry <= viaShardedOne; entry++ {
		if blobs[entry] != nil && !bytes.Equal(ref, blobs[entry]) {
			t.Errorf("%v: %s's budget-%d synopsis differs from Build's", c, entryNames[entry], B)
		}
	}
	// Admission must agree with the worker: a key the catalog admits is a
	// build every entry point runs. (WithQuantize(0) has no key: q = 0
	// keys the exact build, which passes no WithQuantize.)
	if !c.unrestricted && c.eps == 0 && !c.weights && (c.quantize == nil || *c.quantize != 0) {
		family, kq, kc := catalog.FamilyHistogram, 0, probsyn.DefaultParams().C
		if c.wavelet {
			family = catalog.FamilyWavelet
		}
		if c.quantize != nil {
			kq = *c.quantize
		}
		if c.c != nil {
			kc = *c.c
		}
		_, err := catalog.NewKeyQ("d", family, c.metric.String(), B, kc, kq)
		if (err == nil) != (ref != nil) {
			t.Errorf("%v: catalog.NewKeyQ admits = %v (err %v), Build accepts = %v", c, err == nil, err, ref != nil)
		}
	}
}

// TestEntryPointsAgreeOnEdgeBudgets: the budgets and domains the four
// entry points used to special-case one by one.
func TestEntryPointsAgreeOnEdgeBudgets(t *testing.T) {
	wide := ptest.RandomValuePDF(rand.New(rand.NewSource(15)), 6, 3)
	one := ptest.RandomValuePDF(rand.New(rand.NewSource(16)), 1, 3)
	for _, tc := range []struct {
		name    string
		src     *probsyn.ValuePDF
		wavelet bool
		metric  probsyn.Metric
		B       int
		accept  bool
	}{
		{"histogram B=0", wide, false, probsyn.SSE, 0, false},
		{"histogram B<0", wide, false, probsyn.SAE, -1, false},
		{"wavelet B<0", wide, true, probsyn.SAE, -1, false},
		// The empty synopsis: a wavelet frontier built at budget 0 has the
		// one budget 0.
		{"wavelet SSE B=0", wide, true, probsyn.SSE, 0, true},
		{"wavelet DP B=0", wide, true, probsyn.SAE, 0, true},
		{"histogram B>n", wide, false, probsyn.SSE, 40, true},
		{"histogram max-error B>n", wide, false, probsyn.MAE, 40, true},
		{"wavelet SSE B>n", wide, true, probsyn.SSE, 40, true},
		{"wavelet DP B>n", wide, true, probsyn.SAE, 40, true},
		{"histogram n=1", one, false, probsyn.SSE, 2, true},
		{"wavelet SSE n=1", one, true, probsyn.SSE, 2, true},
		{"wavelet DP n=1", one, true, probsyn.SAE, 2, true},
		{"wavelet DP n=1 B=0", one, true, probsyn.SAE, 0, true},
	} {
		var opts []probsyn.BuildOption
		if tc.wavelet {
			opts = append(opts, probsyn.WithWavelet())
		}
		var ref []byte
		last := viaShardedOne
		if tc.wavelet {
			last = viaLive // a wavelet is not sharded
		}
		for entry := viaBuild; entry <= last; entry++ {
			syn, err := buildVia(entry, tc.src, tc.metric, tc.B, opts)
			if (err == nil) != tc.accept {
				t.Errorf("%s: %s accepted = %v (err %v), want %v", tc.name, entryNames[entry], err == nil, err, tc.accept)
				continue
			}
			if err != nil {
				continue
			}
			// Domain is the padded one for wavelets; a wavelet budget is "at most".
			if want := min(tc.B, syn.Domain()); syn.Terms() > want || (!tc.wavelet && syn.Terms() != want) {
				t.Errorf("%s: %s returned %d terms at budget %d over %d items", tc.name, entryNames[entry], syn.Terms(), tc.B, syn.Domain())
			}
			if blob := mustMarshal(t, syn); entry == viaBuild {
				ref = blob
			} else if !bytes.Equal(ref, blob) {
				t.Errorf("%s: %s's synopsis differs from Build's", tc.name, entryNames[entry])
			}
		}
	}
}

// TestLiveWeightedHistogram: a workload-weighted live histogram has no
// weights for new items, so it refuses Append — and nothing else: Update
// keeps it byte-identical to a weighted Build over the updated data.
func TestLiveWeightedHistogram(t *testing.T) {
	const n, B = 8, 3
	rng := rand.New(rand.NewSource(17))
	vp := ptest.RandomValuePDF(rng, n, 3)
	weighted := combo{metric: probsyn.SSEFixed, weights: true}.options(n)
	live, err := probsyn.BuildLive(vp, probsyn.SSEFixed, B, weighted...)
	if err != nil {
		t.Fatal(err)
	}
	item := ptest.RandomValuePDF(rng, 1, 3).Items[0]
	if err := live.Append([]probsyn.ItemPDF{item}); err == nil {
		t.Fatal("weighted live histogram accepted Append")
	}
	if live.Domain() != n {
		t.Fatalf("refused Append changed the domain to %d", live.Domain())
	}
	if err := live.Update(2, item); err != nil {
		t.Fatal(err)
	}
	vp.Items[2] = item
	want, err := probsyn.Build(vp, probsyn.SSEFixed, B, weighted...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := live.Synopsis(B)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, want)) {
		t.Fatal("updated weighted live histogram differs from a weighted Build over the updated data")
	}
}

// A source that breaks its model's rules is an error at every entry point,
// for both families, never a panic further down: the plan validates it,
// and so do the two constructors Build cannot express.
func TestEntryPointsRejectBadSources(t *testing.T) {
	tuples := func(n int, alts ...probsyn.Alternative) *probsyn.TuplePDF {
		return &probsyn.TuplePDF{N: n, Tuples: []probsyn.Tuple{{Alts: alts}}}
	}
	value := func(n int, entries ...probsyn.FreqProb) *probsyn.ValuePDF {
		vp := &probsyn.ValuePDF{N: n, Items: make([]probsyn.ItemPDF, max(n, 0))}
		if n > 0 {
			vp.Items[0].Entries = entries
		}
		return vp
	}
	bad := []struct {
		name string
		src  probsyn.Source
	}{
		{"tuple/item out of range", tuples(4, probsyn.Alternative{Item: 7, Prob: .5})},
		{"tuple/negative item", tuples(4, probsyn.Alternative{Item: -1, Prob: .5})},
		{"tuple/probability above 1", tuples(4, probsyn.Alternative{Item: 1, Prob: 1.5})},
		{"tuple/probability NaN", tuples(4, probsyn.Alternative{Item: 1, Prob: math.NaN()})},
		{"tuple/mass above 1", tuples(4, probsyn.Alternative{Item: 1, Prob: .7}, probsyn.Alternative{Item: 2, Prob: .7})},
		{"tuple/empty domain", tuples(0)},
		{"basic/item out of range", &probsyn.Basic{N: 4, Tuples: []probsyn.BasicTuple{{Item: 4, Prob: .5}}}},
		{"basic/probability below 0", &probsyn.Basic{N: 4, Tuples: []probsyn.BasicTuple{{Item: 1, Prob: -.5}}}},
		{"basic/negative domain", &probsyn.Basic{N: -1}},
		{"value/probability above 1", value(4, probsyn.FreqProb{Freq: 1, Prob: 1.5})},
		{"value/mass above 1", value(4, probsyn.FreqProb{Freq: 1, Prob: .7}, probsyn.FreqProb{Freq: 2, Prob: .7})},
		{"value/negative frequency", value(4, probsyn.FreqProb{Freq: -1, Prob: .5})},
		{"value/item count", &probsyn.ValuePDF{N: 4, Items: make([]probsyn.ItemPDF, 3)}},
		{"value/empty domain", value(0)},
	}
	for _, b := range bad {
		for entry := 0; entry < entryPoints; entry++ {
			for _, opts := range [][]probsyn.BuildOption{nil, {probsyn.WithWavelet()}} {
				if _, err := buildVia(entry, b.src, probsyn.SSE, 2, opts); err == nil {
					t.Errorf("%s: %s (wavelet=%v) accepted the source", b.name, entryNames[entry], opts != nil)
				}
			}
		}
		for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SAE} {
			if _, err := probsyn.EquiDepthHistogram(b.src, m, probsyn.DefaultParams(), 2); err == nil {
				t.Errorf("%s: EquiDepthHistogram(%v) accepted the source", b.name, m)
			}
		}
		if _, _, err := probsyn.SSEWavelet(b.src, 2); err == nil {
			t.Errorf("%s: SSEWavelet accepted the source", b.name)
		}
	}
}
