package wavelet

import (
	"fmt"

	"probsyn/internal/engine"
	"probsyn/internal/haar"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
)

// Live is a wavelet budget frontier kept live against a mutable value-pdf
// source. It answers exactly what the corresponding Sweep answers —
// Bmax/Cost/Synopsis, each extraction bit-identical to an independent
// build at that budget — but retains the forward state (the DP's
// per-level tables, or the SSE family's ordered coefficients) so
// Append/Update can revalidate it without a from-scratch build.
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
//     errors and candidates (still on the retained layout). Appends that
//     outgrow the power-of-two padding rebuild everything, including the
//     deeper tree.
//
// Whatever path a mutation takes, the maintained state is bit-identical
// to a fresh build over the mutated data; the live property tests assert
// byte identity through the codec at every budget and worker count.
//
// A Live is not safe for concurrent use; callers serialize mutations
// against extraction (probsyn.BuildLive's adapter locks internally).
type Live struct {
	family Family
	kind   metric.Kind
	p      metric.Params
	q      int
	breq   int // requested budget, before domain clamping
	pool   *engine.Pool

	logical int             // unpadded domain size mutations address
	vp      *pdata.ValuePDF // padded mutable copy of the data
	n       int             // padded domain size (len of vp.Items)
	bmax    int             // min(breq, n)

	// DP families: the retained forward state.
	pe    *PointErrors
	cvals []float64 // expected coefficients (candidates / grid centers)
	cands [][]float64
	d     *treeDP // nil when n == 1 (singleton extraction)

	// SSE family: the retained greedy state.
	expected []float64 // padded expected frequencies
	varArr   []float64 // Var[g_i] per logical item
	g        sseGreedy // over haar.Forward(expected) and varArr

	costs       []float64 // memoized Cost frontier; nil after a mutation
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
	if err := lv.rebuildAll(); err != nil {
		return nil, err
	}
	return lv, nil
}

// Bmax returns the largest budget the frontier covers; it can grow after
// an Append when the requested budget was clamped by the old domain.
func (lv *Live) Bmax() int { return lv.bmax }

// Domain returns the current logical (unpadded) domain size.
func (lv *Live) Domain() int { return lv.logical }

// FastRepairs returns how many mutations took the dirty-path repair fast
// path (DP families only) — tests and benchmarks assert the intended
// path actually ran.
func (lv *Live) FastRepairs() int { return lv.fastRepairs }

// Cost returns the optimal expected error at budget b (clamped to
// [1, Bmax]). The frontier is derived lazily from the maintained state
// and memoized until the next mutation.
func (lv *Live) Cost(b int) float64 {
	if lv.bmax == 0 {
		return lv.at(0).Cost
	}
	if lv.costs == nil {
		var costAt func(int) float64
		if lv.d != nil && lv.d.quant == 0 {
			costAt = lv.d.cost
		}
		lv.costs = curve(lv.bmax, lv.at, costAt)
	}
	return lv.costs[min(max(b, 1), lv.bmax)-1]
}

// Stats returns the tree DP's work counters, cumulative across the build
// and every mutation since: forward sweeps, resweeps and dirty-path
// repairs. Zero for the SSE family and the n == 1 domain.
func (lv *Live) Stats() hist.DPStats {
	if lv.d == nil {
		return hist.DPStats{}
	}
	return lv.d.stats
}

// ErrorBound returns the additive suboptimality bound of the maintained
// frontier under the current data: 0 for exact families, the quantized
// restricted DP's bound otherwise (see Sweep.ErrorBound). Recomputed on
// demand — mutations move it.
func (lv *Live) ErrorBound() float64 {
	if lv.d != nil {
		return lv.d.errorBound()
	}
	return 0
}

// Synopsis extracts the optimal budget-b synopsis, 1 <= b <= Bmax (0 when
// Bmax is 0), bit-identical to a fresh build over the current data.
func (lv *Live) Synopsis(b int) (*Synopsis, error) {
	if b > lv.bmax || b < min(1, lv.bmax) {
		return nil, fmt.Errorf("wavelet: live budget %d outside [1, %d]", b, lv.bmax)
	}
	return lv.at(b), nil
}

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
		lv.costs = nil
		return lv.rebuildAll()
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
// dirty had their pdfs replaced (the padded domain unchanged).
func (lv *Live) refresh(dirty []int) error {
	lv.costs = nil
	if lv.family == SSEFamily {
		lv.refreshSSE(dirty)
		return nil
	}
	return lv.refreshDP(dirty)
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
// to the dirty items' finest path nodes, a full forward resweep on the
// retained layout otherwise, and a layout rebuild when candidate counts
// changed.
func (lv *Live) refreshDP(dirty []int) error {
	newPe, err := NewPointErrors(lv.vp, lv.kind, lv.p)
	if err != nil {
		return err
	}
	newCvals := haar.Forward(lv.vp.ExpectedFreqs())
	newCands := candidates(lv.family, lv.vp, newCvals, lv.q)
	if lv.n == 1 {
		lv.pe, lv.cvals, lv.cands = newPe, newCvals, newCands
		return nil // singleton extraction reads pe/cands directly
	}
	if sameCandidateShape(lv.cands, newCands) {
		changed := changedCandidates(lv.cands, newCands)
		if lv.d.canRepair(dirty, changed) {
			lv.pe, lv.cvals, lv.cands = newPe, newCvals, newCands
			lv.d.pe, lv.d.cands = newPe, newCands
			lv.d.repair(dirty)
			lv.fastRepairs++
			return nil
		}
	}
	lv.pe, lv.cvals, lv.cands = newPe, newCvals, newCands
	return lv.rebuildDP()
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

// rebuildDP re-runs the forward sweep over the current pe/cands.
func (lv *Live) rebuildDP() error {
	quant := 0
	if lv.family == RestrictedFamily {
		quant = lv.q
	}
	d, err := newTreeDP(lv.n, lv.bmax, lv.cands, lv.pe, lv.kind.Cumulative(), quant, lv.pool)
	if err != nil {
		return err
	}
	if lv.d != nil {
		d.stats.Add(lv.d.stats) // a live frontier's counters are cumulative, like hist.LiveDP's
	}
	lv.d = d
	return nil
}

// rebuildAll reconstructs every retained structure from lv.vp — the
// initial build, and the regrow path when appends outgrow the padding.
func (lv *Live) rebuildAll() error {
	lv.bmax = lv.breq
	if lv.bmax > lv.n {
		lv.bmax = lv.n
	}
	lv.costs = nil
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
		return nil
	}
	pe, err := NewPointErrors(lv.vp, lv.kind, lv.p)
	if err != nil {
		return err
	}
	lv.pe = pe
	lv.cvals = haar.Forward(lv.vp.ExpectedFreqs())
	lv.cands = candidates(lv.family, lv.vp, lv.cvals, lv.q)
	if lv.n == 1 {
		lv.d = nil
		return nil
	}
	return lv.rebuildDP()
}

// at extracts the budget-b synopsis from the maintained state, mirroring
// the corresponding Sweep's extraction operation for operation.
func (lv *Live) at(b int) *Synopsis {
	switch {
	case lv.family == SSEFamily:
		return lv.g.at(b)
	case lv.n == 1:
		return singleton(lv.family, lv.pe, lv.cands[0], b)
	default:
		return lv.d.synopsis(b, false)
	}
}
