package wavelet

import (
	"fmt"

	"probsyn/internal/engine"
	"probsyn/internal/haar"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
)

// Live is a wavelet budget frontier kept live against a mutable value-pdf
// source: a Sweep plus its data. The embedded Sweep answers
// Bmax/Cost/Synopsis/ErrorBound/Stats over the current state — each
// extraction bit-identical to an independent build at that budget — and
// Live retains the forward state behind it (the DP's per-level tables, or
// the SSE family's ordered coefficients) so Append/Update can revalidate
// it without a from-scratch build. Every mutation re-wraps the Sweep (a
// closure over the retained state, nothing recomputed), so its memoised
// cost curve starts over, Bmax can grow after an Append when the requested
// budget was clamped by the old domain, and Stats is cumulative across the
// build and every mutation since: forward sweeps, resweeps and dirty-path
// repairs.
//
// How much work a mutation saves is mutation-dependent:
//
//   - SSE family: every mutation is cheap — O(k log n) coefficient
//     patches plus an O(n) order merge, versus the fresh build's moment
//     pass and O(n log n) sort.
//   - DP families, mutations whose candidate-value changes stay on the
//     two finest levels of the dirty items' paths (mean-preserving
//     corrections — the expected frequencies, hence all expected
//     coefficients, unchanged): dirty-path repair recomputes only the
//     O(log n) path node blocks (treedp.go's repair) — orders of
//     magnitude below a full forward sweep.
//   - DP families, mean-changing mutations: every expected coefficient
//     on the path moves, which shifts incoming values across whole
//     subtrees, so the forward sweep re-runs over the patched point
//     errors and candidates. Appends that outgrow the power-of-two
//     padding rebuild everything, including the deeper tree.
//
// Whatever path a mutation takes, the maintained state is bit-identical
// to a fresh build over the mutated data; the live property tests assert
// byte identity through the codec at every budget and worker count.
//
// A Live is not safe for concurrent use, and a Sweep read off it is good
// until the next mutation; callers serialize mutations against extraction
// (probsyn.BuildLive's adapter locks internally).
type Live struct {
	*Sweep // the frontier over the current state

	family Family
	kind   metric.Kind
	p      metric.Params
	q      int
	breq   int // requested budget, before domain clamping
	pool   *engine.Pool

	logical int             // unpadded domain size mutations address
	vp      *pdata.ValuePDF // padded mutable copy of the data
	n       int             // padded domain size (len of vp.Items)

	// DP families: the retained forward state.
	pe    *PointErrors
	cands [][]float64
	d     *treeDP // nil when n == 1 (singleton extraction)

	// SSE family: the retained greedy state.
	expected []float64 // padded expected frequencies
	varArr   []float64 // Var[g_i] per logical item
	g        sseGreedy // over haar.Forward(expected) and varArr

	fastRepairs int
}

// NewLive builds the initial frontier (performing exactly the work
// NewSweep performs for the family) and retains its state for
// maintenance. Mutations are defined over the value-pdf model, so the
// source must be a *pdata.ValuePDF — convert other models with
// pdata.AsValuePDF first if the induced-marginal semantics is acceptable.
// family and q are NewSweep's (see Family); with a quantized restricted
// DP, repairs and resweeps replay mutations on the same quantized grids,
// so the maintained state keeps matching a fresh quantized sweep bit for
// bit.
func NewLive(src pdata.Source, family Family, kind metric.Kind, p metric.Params, B, q int, pool *engine.Pool) (*Live, error) {
	vp, ok := src.(*pdata.ValuePDF)
	if !ok {
		return nil, fmt.Errorf("wavelet: live maintenance is defined over the value-pdf model; got %T (convert with pdata.AsValuePDF)", src)
	}
	if B < 0 {
		return nil, fmt.Errorf("wavelet: negative budget %d", B)
	}
	if err := checkQuant(family, q); err != nil {
		return nil, err
	}
	if err := vp.Validate(); err != nil {
		return nil, err
	}
	if pool == nil {
		pool = engine.Serial()
	}
	lv := &Live{
		family: family, kind: kind, p: p, q: q, breq: B, pool: pool,
		logical: vp.N,
	}
	lv.vp = padValuePDF(vp.Clone())
	lv.n = lv.vp.N
	if err := lv.rebuild(); err != nil {
		return nil, err
	}
	return lv, nil
}

// Domain returns the current logical (unpadded) domain size.
func (lv *Live) Domain() int { return lv.logical }

// FastRepairs returns how many mutations took the dirty-path repair fast
// path (DP families only) — tests and benchmarks assert the intended
// path actually ran.
func (lv *Live) FastRepairs() int { return lv.fastRepairs }

// Update replaces item i's frequency pdf and revalidates the frontier.
func (lv *Live) Update(i int, item pdata.ItemPDF) error {
	if i < 0 || i >= lv.logical {
		return fmt.Errorf("wavelet: update index %d outside domain [0, %d)", i, lv.logical)
	}
	if err := item.Validate(); err != nil {
		return fmt.Errorf("wavelet: update item %d: %w", i, err)
	}
	lv.vp.Items[i] = item.Clone()
	return lv.refresh([]int{i})
}

// Append extends the domain with the given item pdfs. While the new
// items fit the power-of-two padding they replace pad slots and are
// maintained like updates; once they outgrow it, the error tree deepens
// and the state is rebuilt over the repadded domain.
func (lv *Live) Append(items []pdata.ItemPDF) error {
	if len(items) == 0 {
		return nil
	}
	for k := range items {
		if err := items[k].Validate(); err != nil {
			return fmt.Errorf("wavelet: append item %d: %w", k, err)
		}
	}
	newLogical := lv.logical + len(items)
	if newLogical > lv.n {
		// Regrow: repad and rebuild — the tree reshapes.
		grown := &pdata.ValuePDF{N: newLogical, Items: make([]pdata.ItemPDF, 0, newLogical)}
		grown.Items = append(grown.Items, lv.vp.Items[:lv.logical]...)
		for _, it := range items {
			grown.Items = append(grown.Items, it.Clone())
		}
		lv.vp = padValuePDF(grown)
		lv.logical, lv.n = newLogical, lv.vp.N
		return lv.rebuild()
	}
	dirty := make([]int, len(items))
	for k, it := range items {
		dirty[k] = lv.logical + k
		lv.vp.Items[lv.logical+k] = it.Clone()
	}
	lv.logical = newLogical
	return lv.refresh(dirty)
}

// refresh revalidates the maintained state after the items listed in
// dirty had their pdfs replaced (the padded domain unchanged), and
// re-wraps the frontier over it.
func (lv *Live) refresh(dirty []int) error {
	if lv.family == SSEFamily {
		lv.refreshSSE(dirty)
	} else if err := lv.refreshDP(dirty); err != nil {
		return err
	}
	lv.wrap()
	return nil
}

// wrap points the embedded Sweep at the maintained state, extracting
// operation for operation as the family's NewSweep does.
func (lv *Live) wrap() {
	switch {
	case lv.family == SSEFamily:
		lv.Sweep = lv.g.sweep(lv.breq)
	case lv.n == 1:
		lv.Sweep = extractionSweep(min(lv.breq, 1), func(b int) *Synopsis { return singleton(lv.family, lv.pe, lv.cands[0], b) })
	default:
		lv.Sweep = lv.d.sweep(false)
	}
}

// ---------------------------------------------------------------------------
// SSE family maintenance.

// refreshSSE patches the retained greedy state: dirty expected
// frequencies and variances, a full (O(n), allocation-only) re-transform,
// and a merge of the changed coefficients back into the retained order.
// The magnitude order is a strict total order (ties break by index), so
// the merged order is element-identical to a fresh TopK.
func (lv *Live) refreshSSE(dirty []int) {
	for _, i := range dirty {
		mean, sq := lv.vp.Items[i].Mean(), lv.vp.Items[i].MeanSq()
		lv.expected[i] = mean
		if i < len(lv.varArr) {
			lv.varArr[i] = sq - mean*mean
		} else {
			// Appends arrive in domain order, so the variance array
			// extends without gaps.
			lv.varArr = append(lv.varArr, sq-mean*mean)
		}
	}
	newC := haar.Forward(lv.expected)
	changed := make([]int, 0, 4*len(dirty))
	for i, v := range newC {
		if v != lv.g.c[i] {
			changed = append(changed, i)
		}
	}
	lv.g.c = newC
	if len(changed) > 0 {
		lv.g.order = mergeOrder(lv.g.order, newC, lv.n, changed)
	}
	lv.g.sums(lv.varArr)
}

// mergeOrder rebuilds the magnitude order after the listed coefficients
// changed value: the surviving entries keep their relative order (their
// keys are untouched), the changed ones are sorted among themselves and
// the two runs merge under the same (|normalized| desc, index asc)
// comparator TopK sorts by. Because that comparator is a strict total
// order, the result is the unique sorted sequence — element-identical to
// TopK(c, n) — in O(n + |changed| log |changed|).
func mergeOrder(old []int, c []float64, n int, changed []int) []int {
	inChanged := make(map[int]bool, len(changed))
	for _, i := range changed {
		inChanged[i] = true
	}
	kept := make([]int, 0, len(old))
	for _, i := range old {
		if !inChanged[i] {
			kept = append(kept, i)
		}
	}
	key := func(i int) float64 {
		v := c[i]
		if v < 0 {
			v = -v
		}
		return v * haar.NormFactor(i, n)
	}
	less := func(a, b int) bool {
		ka, kb := key(a), key(b)
		if ka != kb {
			return ka > kb
		}
		return a < b
	}
	sortInts(changed, less)
	out := make([]int, 0, n)
	ci := 0
	for _, i := range kept {
		for ci < len(changed) && less(changed[ci], i) {
			out = append(out, changed[ci])
			ci++
		}
		out = append(out, i)
	}
	out = append(out, changed[ci:]...)
	return out
}

// sortInts is an insertion sort under an arbitrary strict order — the
// changed set is O(log n) per mutated item, far below sort.Slice's
// overhead at that size.
func sortInts(xs []int, less func(a, b int) bool) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// ---------------------------------------------------------------------------
// DP family maintenance.

// refreshDP re-derives the point errors and candidate sets over the
// patched data (both are rebuilt wholesale — their cost is a vanishing
// fraction of the forward DP's), diffs the candidates, and picks the
// cheapest correct path: dirty-path repair when the changes are confined
// to the dirty items' finest path nodes, a forward sweep otherwise — when
// candidate values moved higher up, when candidate counts changed, and,
// there being no retained candidates of the tree's shape to diff against,
// on the initial build and after a regrow.
func (lv *Live) refreshDP(dirty []int) error {
	pe, cands, quant, err := dpInputs(lv.vp, lv.family, lv.kind, lv.p, lv.q)
	if err != nil {
		return err
	}
	old := lv.cands
	lv.pe, lv.cands = pe, cands
	if lv.n == 1 {
		return nil // singleton extraction reads pe/cands directly
	}
	if sameCandidateShape(old, cands) && lv.d.canRepair(dirty, changedCandidates(old, cands)) {
		lv.d.pe, lv.d.cands = pe, cands
		lv.d.repair(dirty)
		lv.fastRepairs++
		return nil
	}
	d, err := newTreeDP(lv.n, min(lv.breq, lv.n), cands, pe, lv.kind.Cumulative(), quant, lv.pool)
	if err != nil {
		return err
	}
	if lv.d != nil {
		d.stats.Add(lv.d.stats) // a live frontier's counters are cumulative, like hist.LiveDP's
	}
	lv.d = d
	return nil
}

func sameCandidateShape(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if len(a[j]) != len(b[j]) {
			return false
		}
	}
	return true
}

// changedCandidates returns the coefficients whose candidate values
// differ (shapes already known equal).
func changedCandidates(a, b [][]float64) []int {
	var out []int
	for j := range a {
		for k := range a[j] {
			if a[j][k] != b[j][k] {
				out = append(out, j)
				break
			}
		}
	}
	return out
}

// rebuild reconstructs every retained structure from lv.vp — the initial
// build, and the regrow path when appends outgrow the padding.
func (lv *Live) rebuild() error {
	if lv.family == SSEFamily {
		lv.expected = lv.vp.ExpectedFreqs()
		lv.varArr = make([]float64, lv.logical)
		for i := 0; i < lv.logical; i++ {
			mean, sq := lv.vp.Items[i].Mean(), lv.vp.Items[i].MeanSq()
			lv.varArr[i] = sq - mean*mean
		}
		c := haar.Forward(lv.expected)
		lv.g = sseGreedy{c: c, order: haar.TopK(c, lv.n)}
		lv.g.sums(lv.varArr)
	} else if err := lv.refreshDP(nil); err != nil {
		return err
	}
	lv.wrap()
	return nil
}
