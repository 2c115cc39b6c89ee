package probsyn_test

// worlds is the conformance table's whole-answer oracle: a tiny source's
// possible worlds enumerated once, and from them the expected error of any
// histogram or wavelet synopsis (Eq. 5 under SSE, §2.2–2.3's objectives
// otherwise) and the optimum over every bucketing or every subset of the
// expected Haar coefficients. It shares no code with the build paths but the
// metric's point error and the Haar transform.

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"probsyn"
	"probsyn/internal/haar"
)

// outcome is one value of an item's marginal frequency distribution.
type outcome struct{ freq, prob float64 }

type worlds struct {
	n    int
	pmf  [][]outcome            // pmf[i]: item i's marginal distribution
	mean []float64              // E[g_i]
	eq5  [][]float64            // eq5[s][e]: E_W[Σ_{i∈[s,e]} (g_i − mean_W)²], the bucket's own per-world mean
	mins map[string][][]float64 // minTable, per objective
	opts map[string][]float64   // histOpt and waveletOpt, per objective
}

// objective is what a synopsis is priced under: a metric and its
// parameters, or, with weights, the workload-weighted SSE of a stored
// representative.
type objective struct {
	m       probsyn.Metric
	p       probsyn.Params
	weights []float64
}

func (o objective) key() string {
	if o.weights != nil {
		return o.m.String() + "/weighted"
	}
	return o.m.String()
}

func (o objective) cumulative() bool { return o.weights != nil || o.m.Cumulative() }

func (o objective) combine(acc, x float64) float64 {
	if o.cumulative() {
		return acc + x
	}
	return max(acc, x)
}

func newWorlds(src probsyn.Source) *worlds {
	n := src.Domain()
	w := &worlds{n: n, pmf: make([][]outcome, n), mean: make([]float64, n), eq5: make([][]float64, n), mins: map[string][][]float64{}, opts: map[string][]float64{}}
	marg := make([]map[float64]float64, n)
	for i := range marg {
		marg[i] = map[float64]float64{}
		w.eq5[i] = make([]float64, n)
	}
	src.EnumerateWorlds(func(g []float64, p float64) bool {
		for i, v := range g {
			marg[i][v] += p
			w.mean[i] += p * v
		}
		for s := range g {
			sum, sq := 0.0, 0.0
			for e := s; e < n; e++ {
				sum += g[e]
				sq += g[e] * g[e]
				w.eq5[s][e] += p * (sq - sum*sum/float64(e-s+1))
			}
		}
		return true
	})
	for i, m := range marg {
		for v, p := range m {
			w.pmf[i] = append(w.pmf[i], outcome{v, p})
		}
		slices.SortFunc(w.pmf[i], func(a, b outcome) int { return cmp.Compare(a.freq, b.freq) })
	}
	return w
}

// itemErr is item i's expected error at estimate v; items past the domain
// are a wavelet's zero padding.
func (w *worlds) itemErr(o objective, i int, v float64) float64 {
	m := o.m
	if o.weights != nil {
		m = probsyn.SSEFixed
	}
	if i >= w.n {
		return m.PointError(0, v, o.p)
	}
	e := 0.0
	for _, x := range w.pmf[i] {
		e += x.prob * m.PointError(x.freq, v, o.p)
	}
	if o.weights != nil {
		e *= o.weights[i]
	}
	return e
}

// bucketErr is bucket [s, e]'s expected error at representative rep
// (ignored under SSE, whose bucket is priced at each world's own mean).
func (w *worlds) bucketErr(o objective, s, e int, rep float64) float64 {
	if o.m == probsyn.SSE && o.weights == nil {
		return w.eq5[s][e]
	}
	total := 0.0
	for i := s; i <= e; i++ {
		total = o.combine(total, w.itemErr(o, i, rep))
	}
	return total
}

// bucketMin is bucket [s, e]'s least expected error over representatives.
// Every objective is convex in the representative and least inside the
// span of the bucket's frequencies, so a ternary search over that span
// finds it; the frequencies themselves, where absolute errors bend, are
// tried too.
func (w *worlds) bucketMin(o objective, s, e int) float64 {
	lo, hi, best := math.Inf(1), math.Inf(-1), math.Inf(1)
	for i := s; i <= e; i++ {
		for _, x := range w.pmf[i] {
			lo, hi = min(lo, x.freq), max(hi, x.freq)
			best = min(best, w.bucketErr(o, s, e, x.freq))
		}
	}
	for range 100 {
		a, b := lo+(hi-lo)/3, hi-(hi-lo)/3
		if w.bucketErr(o, s, e, a) <= w.bucketErr(o, s, e, b) {
			hi = b
		} else {
			lo = a
		}
	}
	return min(best, w.bucketErr(o, s, e, lo))
}

// minTable is bucketMin for every bucket, computed once per objective.
func (w *worlds) minTable(o objective) [][]float64 {
	key := o.key()
	if t, ok := w.mins[key]; ok {
		return t
	}
	t := make([][]float64, w.n)
	for s := range t {
		t[s] = make([]float64, w.n)
		for e := s; e < w.n; e++ {
			t[s][e] = w.bucketMin(o, s, e)
		}
	}
	w.mins[key] = t
	return t
}

// histOpt returns opt[b], b = 1..n: the least expected error of any
// bucketing into at most b buckets, each at its best representative.
func (w *worlds) histOpt(o objective) []float64 {
	key := "histogram/" + o.key()
	if opt, ok := w.opts[key]; ok {
		return opt
	}
	bm := w.minTable(o)
	opt := make([]float64, w.n+1)
	for b := range opt {
		opt[b] = math.Inf(1)
	}
	// Bit e of ends set: a bucket ends at item e.
	for ends := 0; ends < 1<<(w.n-1); ends++ {
		cost, s, b := 0.0, 0, 0
		for e := 0; e < w.n; e++ {
			if e == w.n-1 || ends>>e&1 == 1 {
				cost, s, b = o.combine(cost, bm[s][e]), e+1, b+1
			}
		}
		opt[b] = min(opt[b], cost)
	}
	for b := 2; b <= w.n; b++ {
		opt[b] = min(opt[b], opt[b-1])
	}
	w.opts[key] = opt
	return opt
}

// waveletErr is the expected error of a reconstruction over the padded
// domain.
func (w *worlds) waveletErr(o objective, rec []float64) float64 {
	total := 0.0
	for i, v := range rec {
		total = o.combine(total, w.itemErr(o, i, v))
	}
	return total
}

// waveletOpt returns opt[b], b = 0..N over the padded domain N: the least
// expected error of a synopsis keeping at most b expected Haar
// coefficients at their expected values — the restricted problem of
// Theorem 8, and under SSE Theorem 7's unrestricted optimum.
func (w *worlds) waveletOpt(o objective) []float64 {
	key := "wavelet/" + o.key()
	if opt, ok := w.opts[key]; ok {
		return opt
	}
	c := haar.Forward(haar.Pad(w.mean))
	N := len(c)
	opt := make([]float64, N+1)
	for b := range opt {
		opt[b] = math.Inf(1)
	}
	for keep := 0; keep < 1<<N; keep++ {
		syn := &probsyn.WaveletSynopsis{N: N}
		for j := range c {
			if keep>>j&1 == 1 {
				syn.Indices, syn.Values = append(syn.Indices, j), append(syn.Values, c[j])
			}
		}
		b := bits.OnesCount(uint(keep))
		opt[b] = min(opt[b], w.waveletErr(o, syn.Reconstruct()))
	}
	for b := 1; b <= N; b++ {
		opt[b] = min(opt[b], opt[b-1])
	}
	w.opts[key] = opt
	return opt
}

// near is equality up to the rounding of sums taken in another order.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*max(1, math.Abs(a), math.Abs(b))
}

// atMost is a <= b up to the same rounding.
func atMost(a, b float64) bool { return a <= b || near(a, b) }
