package probsyn_test

// The conformance table. Build, BuildSweep, BuildLive and BuildSharded
// resolve their options through one plan, so for every option combination
// and metric, over every source model and the shapes oracles get wrong
// (one spike, all ties, mass below 1, frequencies either side of the
// relative metrics' constant c, repeated frequencies), through every entry
// point and the two facades, at worker counts 1, 2 and NumCPU, it checks:
//
//   - acceptance: each entry point accepts what DESIGN.md's verdict table
//     says (wantAccept), and a catalog key admits what Build accepts;
//   - sameness: codec bytes and DPStats agree across worker counts and
//     entry points, a sweep extracts at every budget what Build builds
//     there, a live frontier after each Append and Update what a fresh
//     sweep builds, BuildSharded at k = 1 what Build builds, and every
//     synopsis decodes to itself;
//   - truth, on the sources of at most 8 items: the whole-answer oracle
//     (worlds) agrees. A reported ErrorCost is the synopsis's expected
//     error over the possible worlds, every bucket is priced at its best
//     representative, an exact path reaches the optimum over every
//     bucketing or coefficient subset, and an approximate one stays within
//     its certificate.
//
// Two wider sources span several DP tiles, so that the worker counts
// really share the grids; the oracle cannot enumerate them.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/haar"
	"probsyn/internal/hist"
	"probsyn/internal/ptest"
)

// combo is one assignment of the options that can conflict. quantize and
// c are the options' arguments, or unset; eps is WithEps's argument, or 0
// for unset.
type combo struct {
	wavelet  bool
	metric   probsyn.Metric
	quantize *int
	eps      float64
	weights  bool
	c        *float64
}

// String names the combination, and its subtest under each source: for
// example wavelet/SAE/q=2/eps=0/weights=false, with a /c=… segment when
// the combination sets the sanity constant.
func (c combo) String() string {
	family, q := "hist", "-"
	if c.wavelet {
		family = "wavelet"
	}
	if c.quantize != nil {
		q = fmt.Sprint(*c.quantize)
	}
	name := fmt.Sprintf("%s/%v/q=%s/eps=%v/weights=%v", family, c.metric, q, c.eps, c.weights)
	if c.c != nil {
		name += fmt.Sprintf("/c=%v", *c.c)
	}
	return name
}

// comboWeights is the workload a weighted combination builds under: zero
// over the first third of the items (a whole shard of a three-way split)
// and on every third item past it.
func comboWeights(n int) []float64 {
	w := make([]float64, n)
	for i := n / 3; i < n; i++ {
		w[i] = float64(i % 3)
	}
	return w
}

func (c combo) params() probsyn.Params {
	if c.c != nil {
		return probsyn.Params{C: *c.c}
	}
	return probsyn.DefaultParams()
}

func (c combo) options(n int) []probsyn.BuildOption {
	var opts []probsyn.BuildOption
	if c.wavelet {
		opts = append(opts, probsyn.WithWavelet())
	}
	if c.quantize != nil {
		opts = append(opts, probsyn.WithQuantize(*c.quantize))
	}
	if c.eps != 0 {
		opts = append(opts, probsyn.WithEps(c.eps))
	}
	if c.c != nil {
		opts = append(opts, probsyn.WithParams(c.params()))
	}
	if c.weights {
		opts = append(opts, probsyn.WithWorkloadWeights(comboWeights(n)))
	}
	return opts
}

// The entry points. viaShardedOne is BuildSharded at k = 1, which must be
// Build; the k = 2 and 3 rows are real merges.
const (
	viaBuild = iota
	viaSweep
	viaLive
	viaShardedOne
	viaShardedTwo
	viaShardedThree
	entryPoints
)

var entryNames = [entryPoints]string{"Build", "BuildSweep", "BuildLive", "BuildSharded(k=1)", "BuildSharded(k=2)", "BuildSharded(k=3)"}

// finitePositive is the rule for a sanity constant and for eps.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// wantAccept is DESIGN.md's option-verdict table, then what the source and
// budget allow: live maintenance is over value pdfs, and a k-way merge
// needs k <= n items and B >= k buckets.
func wantAccept(c combo, entry int, src probsyn.Source, B int) bool {
	// Rules of the combination itself, the same at every entry point.
	if c.c != nil && c.metric.Relative() && !finitePositive(*c.c) {
		return false // max(c, |g|) divides every relative error
	}
	if c.wavelet {
		if c.weights || c.eps != 0 || c.metric == probsyn.SSEFixed {
			return false // SSE-fixed: the SSE synopsis already, at every q
		}
		if c.quantize != nil && (*c.quantize < 2 || c.metric == probsyn.SSE) {
			return false
		}
	} else {
		if c.quantize != nil {
			return false
		}
		if c.weights && c.metric != probsyn.SSEFixed {
			return false // the weights price SSE-fixed's objective alone
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
	case entry == viaLive:
		_, ok := src.(*probsyn.ValuePDF)
		return ok
	case entry > viaShardedOne:
		k := 1 + entry - viaShardedOne
		return k <= src.Domain() && B >= k
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

// confSource is one source of the table and the budget it is built at;
// truth is its oracle, nil past the oracle's reach.
type confSource struct {
	name  string
	src   probsyn.Source
	B     int
	truth *worlds
}

func conformanceSources() []confSource {
	rng := rand.New(rand.NewSource(45))
	items := func(n int, pdf func(i int) []float64) *probsyn.ValuePDF {
		vp := &probsyn.ValuePDF{N: n, Items: make([]probsyn.ItemPDF, n)}
		for i := range vp.Items {
			fp := pdf(i)
			for k := 0; k < len(fp); k += 2 {
				vp.Items[i].Entries = append(vp.Items[i].Entries, probsyn.FreqProb{Freq: fp[k], Prob: fp[k+1]})
			}
		}
		return vp
	}
	tuple := ptest.RandomTuplePDF(rng, 8, 5, 3)
	tuple.Tuples = append(tuple.Tuples,
		probsyn.Tuple{Alts: []probsyn.Alternative{{Item: 2, Prob: .2}, {Item: 3, Prob: .3}, {Item: 4, Prob: .3}}},    // straddles every split
		probsyn.Tuple{Alts: []probsyn.Alternative{{Item: 6, Prob: .25}, {Item: 7, Prob: .25}, {Item: 6, Prob: .25}}}) // names item 6 twice
	srcs := []confSource{
		{name: "value", src: ptest.RandomValuePDF(rng, 8, 3), B: 4},
		{name: "tuple", src: tuple, B: 4},
		{name: "basic", src: ptest.RandomBasic(rng, 8, 10), B: 4},
		// A certain 1000 on the first item of the second shard at k = 2.
		{name: "spike", B: 3, src: items(7, func(i int) []float64 {
			if i == 3 {
				return []float64{1000, 1}
			}
			return []float64{1, .5}
		})},
		{name: "ties", B: 3, src: items(6, func(int) []float64 { return []float64{1, .5, 3, .25} })},
		// Three items: a three-way split has shards one item wide.
		{name: "mass<1", B: 3, src: items(3, func(i int) []float64 {
			return [][]float64{{2, .3}, nil, {1, .2, 4, .1}}[i]
		})},
		// One item, which an Append grows across the wavelet padding, at a
		// budget past the domain: a live frontier's clamp must grow with it.
		{name: "one", B: 2, src: items(1, func(int) []float64 { return []float64{2, .5, 3, .25} })},
		// 0.25, 0.5, 0.75 and 1 about the default c = 0.5.
		{name: "straddle-c", B: 4, src: items(8, func(i int) []float64 {
			return []float64{.25 * float64(1+i%4), .5, .25 * float64(1+(i+2)%4), .25}
		})},
		// Each item lists one frequency twice.
		{name: "duplicates", B: 3, src: items(6, func(i int) []float64 {
			f := float64(1 + i%3)
			return []float64{f, .25, f + 1, .25, f, .25}
		})},
		{name: "wide-value", src: ptest.RandomValuePDF(rng, 40, 3), B: 9},
		{name: "wide-tuple", src: ptest.RandomTuplePDF(rng, 40, 60, 3), B: 9},
	}
	for i := range srcs {
		if srcs[i].src.Domain() <= 8 {
			srcs[i].truth = newWorlds(srcs[i].src)
		}
	}
	return srcs
}

// conformanceCombos crosses every metric with the options that can
// conflict, valid or not, and adds a sanity constant a relative metric
// cannot divide by and an eps that certifies nothing.
func conformanceCombos() []combo {
	q := func(v int) *int { return &v }
	var combos []combo
	for _, wavelet := range []bool{false, true} {
		for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SSEFixed, probsyn.SSRE, probsyn.SAE, probsyn.SARE, probsyn.MAE, probsyn.MARE} {
			for _, quantize := range []*int{nil, q(-1), q(0), q(1), q(2), q(4)} {
				for flags := 0; flags < 4; flags++ {
					eps := 0.0
					if flags&1 != 0 {
						eps = 0.5
					}
					combos = append(combos, combo{wavelet, m, quantize, eps, flags&2 != 0, nil})
				}
			}
		}
		for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.SAE, probsyn.SSRE, probsyn.SARE, probsyn.MARE} {
			for _, c := range []float64{0, -1, math.NaN(), math.Inf(1)} {
				combos = append(combos, combo{wavelet: wavelet, metric: m, c: &c})
			}
			for _, eps := range []float64{math.NaN(), math.Inf(1)} {
				combos = append(combos, combo{wavelet: wavelet, metric: m, eps: eps})
			}
		}
	}
	return combos
}

// TestConformance names each check by its path,
// <source>/<combination>/<entry>: the entries are entryNames, Facades and
// Oracle.
// A combination spans five name levels, six with its /c= one, so one
// entry across every row is
//
//	-run 'TestConformance/.*/.*/.*/.*/.*/.*/(c=|BuildLive$)/BuildLive$'
func TestConformance(t *testing.T) {
	combos := conformanceCombos()
	for _, c := range combos {
		checkKey(t, c)
	}
	var pools []*engine.Pool
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		pools = append(pools, engine.New(engine.Options{Workers: w, Grain: 8}))
	}
	for _, cs := range conformanceSources() {
		t.Run(cs.name, func(t *testing.T) {
			for _, c := range combos {
				t.Run(c.String(), func(t *testing.T) {
					(&row{cs: cs, c: c, pools: pools}).run(t)
				})
			}
		})
	}
}

// checkKey: admission must agree with the worker. A key the catalog admits
// is a build every entry point runs. (WithQuantize(0) has no key: q = 0
// keys the exact build, which passes no WithQuantize.)
func checkKey(t *testing.T, c combo) {
	t.Helper()
	const B = 3
	if c.eps != 0 || c.weights || (c.quantize != nil && *c.quantize == 0) {
		return
	}
	family, kq := catalog.FamilyHistogram, 0
	if c.wavelet {
		family = catalog.FamilyWavelet
	}
	if c.quantize != nil {
		kq = *c.quantize
	}
	_, err := catalog.NewKeyQ("d", family, c.metric.String(), B, c.params().C, kq)
	if accept := wantAccept(c, viaBuild, nil, B); (err == nil) != accept {
		t.Errorf("%v: catalog.NewKeyQ admits = %v (err %v), Build accepts = %v", c, err == nil, err, accept)
	}
}

// row is one combination over one source. t is the running entry's
// subtest; ref and refStats are the serial Builds every entry is held to,
// made by reference.
type row struct {
	t        *testing.T
	cs       confSource
	c        combo
	pools    []*engine.Pool
	ref      [][]byte
	refStats probsyn.DPStats
	refDone  bool
}

func (r *row) fail(format string, args ...any) {
	r.t.Helper()
	r.t.Errorf("%v: "+format, append([]any{r.c}, args...)...)
}

// opts are the combination's options on pool, counting into st.
func (r *row) opts(pool *engine.Pool, st *probsyn.DPStats) []probsyn.BuildOption {
	return append(r.c.options(r.cs.src.Domain()), probsyn.WithPool(pool), probsyn.WithDPStats(st))
}

func (r *row) objective() objective {
	o := objective{m: r.c.metric, p: r.c.params()}
	if r.c.weights {
		o.weights = comboWeights(r.cs.src.Domain())
	}
	return o
}

// decode returns syn's codec bytes and the synopsis they decode to, which
// must print as syn does: every bucket, coefficient and cost, bit for bit.
func (r *row) decode(what string, syn probsyn.Synopsis) (probsyn.Synopsis, []byte) {
	r.t.Helper()
	blob := mustMarshal(r.t, syn)
	back, err := probsyn.UnmarshalSynopsis(blob)
	if err != nil {
		r.fail("%s: %v", what, err)
		return syn, blob
	}
	if fmt.Sprint(back) != fmt.Sprint(syn) {
		r.fail("%s: decodes to %v, built %v", what, back, syn)
	}
	return back, blob
}

// run gives each entry that the verdict table accepts a subtest, whose
// first build is its verdict, then holds its synopses to the reference;
// an entry the table refuses gets one only when it accepts. A subtest
// makes the reference if no earlier one did, so -run can select any one
// entry.
func (r *row) run(t *testing.T) {
	for entry := range entryPoints {
		if !wantAccept(r.c, entry, r.cs.src, r.cs.B) {
			if _, err := buildVia(entry, r.cs.src, r.c.metric, r.cs.B, r.opts(r.pools[0], new(probsyn.DPStats))); err == nil {
				t.Run(entryNames[entry], func(t *testing.T) {
					r.t = t
					r.fail("accepted, want a refusal")
				})
			}
			continue
		}
		t.Run(entryNames[entry], func(t *testing.T) {
			r.t = t
			switch {
			case r.reference() == nil:
				// No reference: nothing to hold this entry to.
			case entry == viaBuild:
				r.build()
			case entry == viaSweep:
				r.sweeps()
			case entry == viaLive:
				r.live()
			default:
				r.sharded(1 + entry - viaShardedOne)
			}
		})
	}
	// The facades take no options: EquiDepthHistogram a histogram metric,
	// SSEWavelet none.
	bare := r.c == (combo{wavelet: r.c.wavelet, metric: r.c.metric})
	if bare && wantAccept(r.c, viaBuild, r.cs.src, r.cs.B) && (!r.c.wavelet || r.c.metric == probsyn.SSE) {
		t.Run("Facades", func(t *testing.T) {
			r.t = t
			if r.reference() != nil {
				r.facades()
			}
		})
	}
	// Every bucket, not only those a build keeps: the oracle's whole table
	// on a source the oracle enumerates (eps prices through the same one).
	if !r.c.wavelet && r.c.eps == 0 && r.cs.truth != nil && wantAccept(r.c, viaBuild, r.cs.src, r.cs.B) {
		t.Run("Oracle", func(t *testing.T) {
			r.t = t
			r.oracle()
		})
	}
}

// reference makes, once a row, the serial Builds every entry is held to:
// one at every budget a sweep serves (at B alone under WithEps, which has
// none), each decoding to itself, and an eps build within its
// certificate. It is nil after a failure, which the subtest that made it
// reports.
func (r *row) reference() [][]byte {
	if r.refDone {
		return r.ref
	}
	r.refDone = true
	src, m, B := r.cs.src, r.c.metric, r.cs.B
	ref := make([][]byte, B+1)
	sweeps := wantAccept(r.c, viaSweep, src, B)
	for b := B; b >= 1 && (b == B || sweeps); b-- {
		var st probsyn.DPStats
		syn, err := probsyn.Build(src, m, b, r.opts(r.pools[0], &st)...)
		if err != nil {
			r.fail("Build at budget %d: %v", b, err)
			return nil
		}
		syn, ref[b] = r.decode(fmt.Sprintf("Build at budget %d", b), syn)
		if b == B {
			r.refStats = st
			if r.c.eps != 0 {
				// Theorem 5: within (1 + eps/2B)^B of the optimum, B <= n.
				bn := float64(min(B, src.Domain()))
				factor := math.Pow(1+r.c.eps/(2*bn), bn)
				r.truth("Build", syn, b, func(cost, opt float64) bool { return atMost(opt, cost) && atMost(cost, factor*opt) })
			}
		}
	}
	r.ref = ref
	return ref
}

// build: on every pool past the reference's serial one, Build has the
// reference's bytes and DPStats.
func (r *row) build() {
	src, m, B := r.cs.src, r.c.metric, r.cs.B
	for _, pool := range r.pools[1:] {
		var st probsyn.DPStats
		syn, err := probsyn.Build(src, m, B, r.opts(pool, &st)...)
		if err != nil {
			r.fail("Build on %d workers: %v", pool.Workers(), err)
			return
		}
		if !bytes.Equal(mustMarshal(r.t, syn), r.ref[B]) || st != r.refStats {
			r.fail("Build on %d workers: bytes or DPStats %+v differ from the serial build's (%+v)", pool.Workers(), st, r.refStats)
		}
	}
}

// sweeps: on every pool, the sweep extracts at every budget the serial
// Build's bytes, with its DPStats and one certified bound, and its cost
// at each budget is its synopsis's, which the oracle holds to the optimum
// (a quantized one to within the bound). An exact sweep's costs never
// rise with the budget.
func (r *row) sweeps() {
	src, m, B, ref, refStats := r.cs.src, r.c.metric, r.cs.B, r.ref, r.refStats
	var bound0 float64
	for i, pool := range r.pools {
		var st probsyn.DPStats
		fr, err := probsyn.BuildSweep(src, m, B, r.opts(pool, &st)...)
		if err != nil {
			r.fail("BuildSweep on %d workers: %v", pool.Workers(), err)
			return
		}
		bound := probsyn.ApproxBound(fr)
		if i == 0 {
			bound0 = bound
		}
		if st != refStats || math.Float64bits(bound) != math.Float64bits(bound0) {
			r.fail("BuildSweep on %d workers: DPStats %+v and bound %v, Build's %+v and %v", pool.Workers(), st, bound, refStats, bound0)
		}
		if fr.Bmax() != r.bmax() {
			r.fail("BuildSweep: Bmax %d, want %d", fr.Bmax(), r.bmax())
			return
		}
		for b := 1; b <= fr.Bmax(); b++ {
			syn, err := fr.Synopsis(b)
			if err != nil {
				r.fail("BuildSweep: budget %d: %v", b, err)
				return
			}
			syn, blob := r.decode(fmt.Sprintf("BuildSweep at budget %d", b), syn)
			// A histogram DP spends the whole budget, as the SSE greedy does.
			if greedy := r.c.quantize == nil && m == probsyn.SSE; (!r.c.wavelet || greedy) && syn.Terms() != b {
				r.fail("BuildSweep: %d terms at budget %d", syn.Terms(), b)
			}
			if !bytes.Equal(blob, ref[b]) {
				r.fail("BuildSweep on %d workers: budget %d's bytes differ from Build's", pool.Workers(), b)
			}
			// A histogram re-prices its buckets in bucket order, which can
			// move the sum by an ulp.
			if got, rec := fr.Cost(b), syn.ErrorCost(); got != rec && (r.c.wavelet || relDiff(got, rec) > 1e-12) {
				r.fail("BuildSweep: Cost(%d) = %v, its synopsis reports %v", b, got, rec)
			}
			if b > 1 && !atMost(fr.Cost(b), fr.Cost(b-1)) && r.c.quantize == nil {
				r.fail("BuildSweep: cost rises at budget %d", b)
			}
			if i > 0 {
				continue
			}
			r.truth("BuildSweep", syn, b, func(cost, opt float64) bool { return atMost(opt, cost) && atMost(cost, opt+bound) })
		}
		for _, b := range []int{-1, 0, fr.Bmax() + 1} {
			if _, err := fr.Synopsis(b); err == nil {
				r.fail("BuildSweep: Synopsis(%d) of a budget-%d frontier succeeded", b, fr.Bmax())
			}
		}
	}
	// A grid as fine as the exact state space (q >= N/2) is the exact DP.
	if q := r.c.quantize; q != nil && *q >= haar.Pow2Ceil(src.Domain())/2 {
		exact, err := probsyn.Build(src, m, B, combo{wavelet: true, metric: m}.options(src.Domain())...)
		if err != nil || bound0 != 0 || !bytes.Equal(mustMarshal(r.t, exact), ref[B]) {
			r.fail("quantized at q=%d >= N/2: bound %v, or bytes other than the exact DP's (err %v)", *q, bound0, err)
		}
	}
}

// live: on every pool, a live frontier starts with Build's bytes and
// DPStats, and after each of an Append (refused, changing nothing, under
// workload weights, which new items have none of), an Update and an
// Update that keeps the item's mean holds at every budget the bytes and
// bound of a fresh serial sweep over the mutated data.
func (r *row) live() {
	m, B := r.c.metric, r.cs.B
	cur := r.cs.src.(*probsyn.ValuePDF).Clone()
	lives := make([]probsyn.Maintainer, len(r.pools))
	for i, pool := range r.pools {
		var st probsyn.DPStats
		live, err := probsyn.BuildLive(cur, m, B, r.opts(pool, &st)...)
		if err != nil {
			r.fail("BuildLive on %d workers: %v", pool.Workers(), err)
			return
		}
		if st != r.refStats {
			r.fail("BuildLive on %d workers: DPStats %+v, Build's %+v", pool.Workers(), st, r.refStats)
		}
		r.sameFrontier("BuildLive", live, r.ref[:r.bmax()+1])
		lives[i] = live
	}
	asFresh := func(what string) bool {
		fresh, err := probsyn.BuildSweep(cur, m, B, r.opts(r.pools[0], new(probsyn.DPStats))...)
		if err != nil {
			r.fail("fresh BuildSweep after %s: %v", what, err)
			return false
		}
		want := make([][]byte, fresh.Bmax()+1)
		for b := 1; b <= fresh.Bmax(); b++ {
			syn, err := fresh.Synopsis(b)
			if err != nil {
				r.fail("fresh BuildSweep after %s: budget %d: %v", what, b, err)
				return false
			}
			want[b] = mustMarshal(r.t, syn)
		}
		for _, live := range lives {
			if live.Domain() != cur.N || math.Float64bits(probsyn.ApproxBound(live)) != math.Float64bits(probsyn.ApproxBound(fresh)) {
				r.fail("BuildLive after %s: domain %d and bound %v, fresh %d and %v", what, live.Domain(), probsyn.ApproxBound(live), cur.N, probsyn.ApproxBound(fresh))
			}
			r.sameFrontier("BuildLive after "+what, live, want)
		}
		return true
	}
	added := probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: 2, Prob: .5}, {Freq: 5, Prob: .25}}}
	for _, live := range lives {
		if err := live.Append([]probsyn.ItemPDF{added}); r.c.weights != (err != nil) {
			r.fail("BuildLive: Append error %v under weights=%v", err, r.c.weights)
			return
		}
	}
	if !r.c.weights {
		cur.Items, cur.N = append(cur.Items, added), cur.N+1
	}
	if !asFresh("an Append") {
		return
	}
	for _, u := range []struct {
		at   int
		item probsyn.ItemPDF
	}{
		{cur.N / 2, probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: 4, Prob: .75}}}},
		{0, probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: 2 * cur.Items[0].Mean(), Prob: .5}}}},
	} {
		for _, live := range lives {
			if err := live.Update(u.at, u.item); err != nil {
				r.fail("BuildLive: Update: %v", err)
				return
			}
		}
		cur.Items[u.at] = u.item
		if !asFresh(fmt.Sprintf("an Update of item %d", u.at)) {
			return
		}
	}
}

// bmax is the budget a frontier built at B serves up to: B clamped to the
// domain, a wavelet's padded one.
func (r *row) bmax() int {
	n := r.cs.src.Domain()
	if r.c.wavelet {
		n = haar.Pow2Ceil(n)
	}
	return min(r.cs.B, n)
}

// sameFrontier requires fr's bytes at every budget to be want's.
func (r *row) sameFrontier(what string, fr probsyn.Frontier, want [][]byte) {
	if fr.Bmax() != len(want)-1 {
		r.fail("%s: Bmax %d, want %d", what, fr.Bmax(), len(want)-1)
		return
	}
	for b := 1; b <= fr.Bmax(); b++ {
		syn, err := fr.Synopsis(b)
		if err != nil {
			r.fail("%s: budget %d: %v", what, b, err)
			return
		}
		if !bytes.Equal(mustMarshal(r.t, syn), want[b]) {
			r.fail("%s: budget %d's bytes differ", what, b)
		}
	}
}

// sharded: a k-way merge has the same bytes, Bound bits and DPStats on
// every pool; at k = 1 it is Build with Bound 0, and past it the oracle
// holds its cost to [OPT, OPT + Bound].
func (r *row) sharded(k int) {
	src, m, B, build := r.cs.src, r.c.metric, r.cs.B, r.ref[r.cs.B]
	var blob0 []byte
	var bound0 float64
	var stats0 probsyn.DPStats
	for i, pool := range r.pools {
		var st probsyn.DPStats
		res, err := probsyn.BuildSharded(src, m, B, k, r.opts(pool, &st)...)
		if err != nil {
			r.fail("BuildSharded(k=%d) on %d workers: %v", k, pool.Workers(), err)
			return
		}
		syn, blob := r.decode(fmt.Sprintf("BuildSharded(k=%d)", k), res.Synopsis)
		if i == 0 {
			blob0, bound0, stats0 = blob, res.Bound, st
			if k == 1 && (!bytes.Equal(blob, build) || res.Bound != 0) {
				r.fail("BuildSharded(k=1): bound %v, or bytes other than Build's", res.Bound)
			}
			if k > 1 {
				r.truth(fmt.Sprintf("BuildSharded(k=%d)", k), syn, B, func(cost, opt float64) bool { return atMost(opt, cost) && atMost(cost, opt+res.Bound) })
			}
		} else if !bytes.Equal(blob, blob0) || math.Float64bits(res.Bound) != math.Float64bits(bound0) || st != stats0 {
			r.fail("BuildSharded(k=%d) on %d workers: bytes, bound %v or DPStats %+v differ from one worker's (%v, %+v)", k, pool.Workers(), res.Bound, st, bound0, stats0)
		}
	}
}

// facades: the equi-depth heuristic prices its buckets as an exact build
// would, and SSEWavelet is Build's greedy synopsis with its accounting.
// (The codec's facades, MarshalSynopsis and UnmarshalSynopsis, are every
// entry's decode.)
func (r *row) facades() {
	c, src, B := r.c, r.cs.src, r.cs.B
	if !c.wavelet {
		h, err := probsyn.EquiDepthHistogram(src, c.metric, c.params(), B)
		if err != nil {
			r.fail("EquiDepthHistogram: %v", err)
			return
		}
		syn, _ := r.decode("EquiDepthHistogram", h)
		r.truth("EquiDepthHistogram", syn, B, func(cost, opt float64) bool { return atMost(opt, cost) })
		return
	}
	syn, rep, err := probsyn.SSEWavelet(src, B)
	if err != nil {
		r.fail("SSEWavelet: %v", err)
		return
	}
	if !bytes.Equal(mustMarshal(r.t, syn), r.ref[B]) || rep.ExpectedSSE != syn.ErrorCost() {
		r.fail("SSEWavelet: bytes differ from Build's, or its report's %v from its cost %v", rep.ExpectedSSE, syn.ErrorCost())
	}
}

// oracle holds the bucket-cost oracle a histogram build prices against to
// bucket's rule on every bucket [s, e], priced by random access and
// through the sweep the DP reads.
func (r *row) oracle() {
	var o hist.Oracle
	var err error
	if r.c.weights {
		o, err = hist.NewWorkloadSSE(r.cs.src, comboWeights(r.cs.src.Domain()))
	} else {
		o, err = hist.NewOracle(r.cs.src, r.c.metric, r.c.params())
	}
	if err != nil {
		r.fail("oracle: %v", err)
		return
	}
	n := o.N()
	costs, reps := make([]float64, n), make([]float64, n)
	for e := range n {
		o.CostsForEnd(e, costs, reps)
		for s := 0; s <= e; s++ {
			cost, rep := o.Cost(s, e)
			r.bucket("oracle Cost", s, e, rep, cost)
			r.bucket("oracle CostsForEnd", s, e, reps[s], costs[s])
		}
	}
}

// bucket holds a bucket [s, e] priced at cost with representative rep to
// the oracle: cost is the bucket's expected error at rep, and that is its
// least over every representative (under SSE, Eq. 5's estimate is the mean
// of the bucket's expected frequencies). It returns the expected error.
func (r *row) bucket(what string, s, e int, rep, cost float64) float64 {
	r.t.Helper()
	w, o := r.cs.truth, r.objective()
	got, best := w.bucketErr(o, s, e, rep), w.minTable(o)[s][e]
	if !near(cost, got) || !near(got, best) {
		r.fail("%s: bucket [%d, %d] at %v reports %v: its expected error is %v, the bucket's least %v", what, s, e, rep, cost, got, best)
	}
	if o.m == probsyn.SSE && o.weights == nil {
		mean := 0.0
		for i := s; i <= e; i++ {
			mean += w.mean[i]
		}
		if mean /= float64(e - s + 1); !near(rep, mean) {
			r.fail("%s: bucket [%d, %d] estimates %v, its mean expected frequency is %v", what, s, e, rep, mean)
		}
	}
	return got
}

// truth holds syn, built at budget b, to the oracle: it has at most b
// terms, its reported cost is its expected error over the source's
// possible worlds, a histogram prices every bucket at that bucket's best
// representative (under SSE, at the mean of its expected frequencies,
// Eq. 5's estimate), and ok accepts the expected error against opt, the
// least any synopsis of the family reaches at b: every bucketing, or
// every subset of the expected coefficients.
func (r *row) truth(what string, syn probsyn.Synopsis, b int, ok func(cost, opt float64) bool) {
	r.t.Helper()
	w := r.cs.truth
	if w == nil {
		return
	}
	if syn.Terms() > b {
		r.fail("%s: %d terms at budget %d", what, syn.Terms(), b)
		return
	}
	o := r.objective()
	var truth, opt float64
	switch s := syn.(type) {
	case *probsyn.Histogram:
		if s.N != w.n {
			r.fail("%s: buckets over %d items, the source has %d", what, s.N, w.n)
			return
		}
		for _, k := range s.Buckets {
			truth = o.combine(truth, r.bucket(what, k.Start, k.End, k.Rep, k.Cost))
		}
		opt = w.histOpt(o)[min(b, w.n)]
	case *probsyn.WaveletSynopsis:
		truth = w.waveletErr(o, s.Reconstruct())
		wopt := w.waveletOpt(o)
		opt = wopt[min(b, len(wopt)-1)]
	}
	if !near(syn.ErrorCost(), truth) {
		r.fail("%s: reports %v, its expected error over the possible worlds is %v", what, syn.ErrorCost(), truth)
	}
	if !ok(truth, opt) {
		r.fail("%s: expected error %v against the optimum %v at budget %d breaks its certificate", what, truth, opt, b)
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
