package wavelet

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"probsyn/internal/engine"
	"probsyn/internal/haar"
	"probsyn/internal/hist"
)

// This file implements the restricted coefficient-tree dynamic program of
// Theorem 8 (§4.2) as a bottom-up, level-by-level sweep over the Haar
// error tree. Every retained coefficient keeps its expected value μⱼ.
//
// A DP state is (node j, ancestor decisions): which of j's ancestors are
// retained determines the "incoming value" v that they contribute to j's
// support, and the table OPTW[j, state][b] holds the minimal expected
// subtree error with at most b coefficients retained below (and at) j.
// States of one level depend only on the completed level below, so each
// level is a flat array of independent slots dispatched through the
// engine pool; the parallel schedule is bit-identical to the serial one
// at any worker count because no cross-worker reduction exists — every
// slot is computed by one worker in the serial operation order.
//
// Layout. Level l holds detail nodes [2^l, 2^{l+1}); every node there has
// the 2^(l+1) states of its l+1 ancestors' drop-or-keep decisions, c0's
// included, stored contiguously with the parent state as the high digits
// (child state = parent state · 2 + decision). Budget axes are capped at
// the subtree coefficient count — entries beyond the cap would only
// repeat the saturated value, so reads clamp instead (res[min(b, cap)]).
// The finest detail level (whose children are data items) is never
// materialized: its two-entry tables are recomputed inline from
// PointErrors, by its parents' forward sweep a node at a time — each item
// priced along the node's states in ascending order of incoming value
// (solveLeafStates, errSweep) — and by the backtrack one path at a time
// (leafTables, the same pricing on a one-value list; walkLeaf, Err),
// which re-derives every argmin decision from the kept level tables.
//
// Quantized mode. Exact state counts double per level, which is what
// makes the DP O(n²B²). With quant = q > 0, any level whose per-node
// exact count would exceed q instead keeps q states per node: a uniform
// grid of q incoming values spanning the node's analytic value bounds
// (the paper's §4.2 "bound and quantize" argument). A transition into a
// quantized level snaps the exact child value v±μⱼ to the nearest grid
// point; everything else — decision order, tie-breaks, the budget
// convolution — is unchanged, so quantized results stay bit-identical at
// any worker count and across sweep extractions for the same reason exact
// ones do. The DP's internal objective is then only approximate;
// extraction re-evaluates the chosen synopsis exactly
// (PointErrors.SynopsisError) and errorBound() bounds the gap to the
// exact optimum.
//
// Zero subtrees. §4's tree needs a power-of-two domain, so NewSweep pads
// the data with deterministic-zero items; the DP is told where that tail
// starts (zero). A node whose items all lie in it has every coefficient
// below it exactly 0 and one point-error function for every item, so its
// rows are constant in budget and come in closed form (solveZeroStates).
// Such nodes are a suffix of each level: solveLevel dispatches only the
// states before it through the pool and fills the suffix after, writing
// every entry the general loop would, bit for bit. A power-of-two domain
// has no tail and runs the general loop alone.

// maxTreeEntries bounds the float64 entries a tree DP keeps: every kept
// level's budget rows and incoming values, Σ_l states_l·(bcap_l+2)
// (treeEntries), 2 GiB at the cap. The exact DP has 2^(2l+1) states at
// level l, so runaway domains fail fast with an error that names the
// quantization that fits instead of exhausting memory.
const maxTreeEntries = 1 << 28

// coefChoice is one retained coefficient: its index and stored value.
type coefChoice struct {
	idx int
	val float64
}

type treeDP struct {
	*dpTables
	n          int       // padded domain size, power of two, >= 2
	zero       int       // first item of the deterministic-zero padding tail; n when there is none
	levels     int       // log2 n: detail levels of the error tree
	B          int       // coefficient budget ("at most B"), already clamped to n
	quant      int       // incoming-value grid size per node; 0 = exact
	mu         []float64 // mu[j]: coefficient j's expected value, the one it is retained at
	pe         *PointErrors
	cumulative bool
	pool       *engine.Pool

	// Work of the forward sweep's solveStates calls, added once per call
	// under statsMu: budget splits merge evaluated, the rest of the dense
	// scan's splits (clamped, saturated, or off the crossing), and point
	// errors evaluated (as many as a state-by-state leaf level's
	// PointErrors.Err calls). solveZeroStates adds its closed-form rows'
	// after each level's dispatch. All three are sums over states, so they
	// are the same at every worker count.
	statsMu sync.Mutex
	stats   hist.DPStats
}

// dpTables is the tree DP's memory in a Buffers set: the per-level
// tables, built bottom-up and kept for the backtrack, the layout and
// grids they are read through, and the forward sweep's scratch. Only
// levels 0..levels-2 are materialized (see the layout note above). Every
// array is sized by resize and refilled by the set's next sweep.
type dpTables struct {
	res  [][]float64 // res[l]: flat [state][0..bcap[l]] blocks
	offs [][]int     // offs[l][i]: first state of node 2^l+i; last entry = level total
	bcap []int       // bcap[l] = min(B, subtree coefficient count)

	// vals[l][state] is the state's incoming value, written top-down by
	// buildGrids for every level. The last internal level's prices the
	// leaves; a quantized DP (quant > 0) also snaps its transitions and
	// backtrack from every level's, against the per-node analytic value
	// bounds and grid steps.
	vals  [][]float64
	blo   [][]float64 // blo[l][i], bhi[l][i]: incoming-value bounds of node 2^l+i
	bhi   [][]float64
	gstep [][]float64 // gstep[l][i]: grid step on quantized levels, else 0

	// ord[l][offs[l][i]:offs[l][i+1]] lists node 2^l+i's local states in
	// ascending order of incoming value, for each level above the last
	// internal one of a DP whose last internal level is exact: the leaf
	// sweep merges each last-level node's order from the level above's
	// (leafOrder). A quantized last level's order is its grid's.
	ord [][]int32

	// leafBuf[w] and leafOrd[w] are dispatch chunk w's scratch on the last
	// internal level (solveLeafStates).
	leafBuf [][]float64
	leafOrd [][]int32
}

// newTreeDP executes the DP's forward level sweeps through the pool and
// returns the solved tables. mu[j] is coefficient j's expected value;
// mu[0] is the overall average c0. Items zero..n-1 are the padding
// padValuePDF appended: deterministic zeros. The kept level tables answer
// extract(b) for every budget b <= B: an entry at budget index b' is
// computed only from child entries at budgets <= b', so the prefix of
// each table up to b is identical to the table a budget-b DP would have
// built — one forward run serves the whole budget frontier.
//
// quant > 0 selects quantized mode: per-node incoming-value rows are
// capped at quant grid states. quant is what treeQuant returned for n.
func newTreeDP(tabs *dpTables, n, zero, B int, mu []float64, pe *PointErrors, cumulative bool, quant int, pool *engine.Pool) *treeDP {
	if pool == nil {
		pool = engine.Serial()
	}
	d := &treeDP{
		dpTables: tabs,
		n:        n, zero: zero, levels: bits.Len(uint(n)) - 1, B: B, quant: quant,
		mu: mu, pe: pe, cumulative: cumulative, pool: pool,
	}
	if d.levels == 1 {
		return d // n == 2: extract enumerates the two nodes directly
	}
	d.layout()
	d.buildGrids()
	d.res = resize(d.res, d.levels-1)
	for l := d.levels - 2; l >= 0; l-- {
		d.solveLevel(l)
	}
	return d
}

// treeQuant is the one check of a tree DP's shape, run before a sweep
// writes anything: it returns the grid size the DP over a padded domain
// of n items at budget B runs at, or the error of a DP past
// maxTreeEntries. A grid at least as fine as the largest exact level
// changes nothing, so quant >= 2^(levels-1) = n/2 is exact mode, 0, and
// yields bit-identical results.
func treeQuant(n, B, quant int) (int, error) {
	if quant >= n/2 {
		quant = 0
	}
	if need := treeEntries(n, B, quant); need > maxTreeEntries {
		return 0, entryOverflowErr(n, B, quant, need)
	}
	return quant, nil
}

// treeEntries counts the float64 entries of the level tables and incoming
// values of a tree DP over n padded items at budget B (clamped to n) and
// grid size quant (0 exact), as layout sizes them: a node at level l has
// 2^(l+1) exact states, or quant on a quantized level, and each state a
// budget row of bcap_l+1 entries and its incoming value.
func treeEntries(n, B, quant int) float64 {
	B = min(B, n)
	L := bits.Len(uint(n)) - 1
	total := 0.0
	for l := 0; l <= L-2; l++ {
		per := 1 << (l + 1)
		if quant > 0 {
			per = min(per, quant)
		}
		bcap := min(B, (1<<(L-l))-1)
		total += float64(float64(per) * float64(int(1)<<l) * float64(bcap+2))
	}
	return total
}

// poisonFill, when set, is written into every float array resize hands
// out, and -1 into every index array; see SetSlabFill.
var poisonFill atomic.Pointer[float64]

// poison writes the poison fill, when one is set, into every entry of s:
// the fill into a float array, -1 into an index array.
func poison[T any](s []T) {
	v := poisonFill.Load()
	if v == nil {
		return
	}
	switch s := any(s).(type) {
	case []float64:
		for k := range s {
			s[k] = *v
		}
	case []int:
		for k := range s {
			s[k] = -1
		}
	case []int32:
		for k := range s {
			s[k] = -1
		}
	}
}

// resize returns s resliced to n entries, regrown as append grows a slice
// when it is too short: an array sized by a domain that grows a few items
// at a time regrows rarely, and one sized by the padded domain once at
// each power of two. Its entries are not zeroed: a per-level row list
// keeps the rows it holds.
func resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	poison(s)
	return s
}

// SetSlabFill makes every array a Buffers set hands a sweep (resize)
// arrive poisoned until restore is called, in a fresh set and a refilled
// one alike. Float arrays are filled with v, index arrays with -1, an
// index out of every range. It exists for tests: filled with
// NaN, an array betrays any entry read before it is written, since such a
// read would change a synopsis byte, and a -1 read as an index panics.
func SetSlabFill(v float64) (restore func()) {
	poisonFill.Store(&v)
	return func() { poisonFill.Store(nil) }
}

func (d *treeDP) combine(a, b float64) float64 {
	if d.cumulative {
		return a + b
	}
	return max(a, b)
}

// lq reports whether level l's per-node states sit on a quantized grid:
// its exact ancestor-decision count 2^(l+1) would exceed the grid size.
func (d *treeDP) lq(l int) bool { return d.quant > 0 && 1<<(l+1) > d.quant }

// layout computes the per-level state offsets and budget caps of the
// shape treeQuant admitted.
func (d *treeDP) layout() {
	L := d.levels
	d.offs = resize(d.offs, L-1)
	d.bcap = resize(d.bcap, L-1)
	for l := 0; l <= L-2; l++ {
		d.bcap[l] = min(d.B, (1<<(L-l))-1)
		per := 1 << (l + 1)
		if d.lq(l) {
			per = d.quant
		}
		offs := resize(d.offs[l], 1<<l+1)
		for i := range offs {
			offs[i] = i * per
		}
		d.offs[l] = offs
	}
}

// entryOverflowErr builds the maxTreeEntries diagnostic: the entries the
// DP needs and the largest quantization that fits at the same budget,
// which treeQuant admits. Entries grow with the grid size, so that is a
// binary search over q in [2, n/2).
func entryOverflowErr(n, B, quant int, need float64) error {
	msg := fmt.Sprintf("wavelet: coefficient-tree DP over a %d-item padded domain at budget %d needs %.4g table entries, over the %d cap", n, min(B, n), need, maxTreeEntries)
	qfit := sort.Search(n/2, func(q int) bool { return q >= 2 && treeEntries(n, B, q) > maxTreeEntries }) - 1
	switch {
	case qfit >= 2 && quant > 0:
		return fmt.Errorf("%s; reduce the quantization to q <= %d", msg, qfit)
	case qfit >= 2:
		return fmt.Errorf("%s; a quantized build with q <= %d fits", msg, qfit)
	default:
		return fmt.Errorf("%s; the domain is too large for any quantization", msg)
	}
}

// buildGrids is the one top-down pass over the incoming value v of the
// paper's OPTW[j, b, v] state: the reconstruction value a state's retained
// ancestors contribute to its node's support. An exact level enumerates
// its parent level's states against the parent node's decisions (drop
// keeps v; keeping μ gives the left child v+μ, the right v−μ), in the
// layout's digit order. A quantized level instead lays quant evenly
// spaced grid points per node across that node's analytic value bounds,
// which accumulate top-down — a child of node j widens its parent's
// interval by μⱼ's contribution on that side — so every
// reachable incoming value, exact or already snapped, stays inside them.
// When the last internal level is exact, each level above it is also
// sorted by incoming value (mergeOrder: each node's order merged from its
// parent's), and the leaf sweep merges each last-level node's order from
// the level just above's as it prices it. (treeQuant normalizes
// quant >= 2^(levels-1) to exact mode, so a quantized DP's last internal
// level is always on its grid.) Every entry of a level is written here,
// so a refilled set needs no zeroing.
func (d *treeDP) buildGrids() {
	L := d.levels
	d.vals = resize(d.vals, L-1)
	sorted := !d.lq(L - 2)
	if sorted {
		d.ord = resize(d.ord, L-2)
	}
	if d.quant > 0 {
		d.blo, d.bhi, d.gstep = resize(d.blo, L-1), resize(d.bhi, L-1), resize(d.gstep, L-1)
		for l := range d.blo {
			d.blo[l] = resize(d.blo[l], 1<<l)
			d.bhi[l] = resize(d.bhi[l], 1<<l)
			d.gstep[l] = resize(d.gstep[l], 1<<l)
			if !d.lq(l) {
				clear(d.gstep[l])
			}
		}
		w0 := d.mu[0]
		d.blo[0][0] = math.Min(0, w0)
		d.bhi[0][0] = math.Max(0, w0)
	}
	for l := 0; l <= L-2; l++ {
		d.vals[l] = resize(d.vals[l], d.offs[l][1<<l])
		ordered := sorted && l < L-2
		if ordered {
			d.ord[l] = resize(d.ord[l], d.offs[l][1<<l])
		}
		for i := 0; i < 1<<l; i++ {
			vs := d.vals[l][d.offs[l][i]:d.offs[l][i+1]]
			switch {
			case d.lq(l):
				lo := d.blo[l][i]
				step := (d.bhi[l][i] - lo) / float64(d.quant-1)
				d.gstep[l][i] = step
				for k := range vs {
					vs[k] = lo + float64(float64(k)*step)
				}
			case l == 0:
				vs[0], vs[1] = 0, d.mu[0] // state 0 drops c0, state 1 keeps it
			default:
				// The parent level is exact too: quantization only deepens.
				pi := i >> 1
				w := d.mu[(1<<(l-1))+pi]
				for s, v := range d.vals[l-1][d.offs[l-1][pi]:d.offs[l-1][pi+1]] {
					vs[2*s] = v
					if i&1 == 0 {
						vs[2*s+1] = v + w
					} else {
						vs[2*s+1] = v - w
					}
				}
			}
			if ordered {
				d.mergeOrder(l, i, d.ord[l][d.offs[l][i]:d.offs[l][i+1]])
			}
		}
		if d.quant > 0 && l < L-2 {
			for i := 0; i < 1<<l; i++ {
				w := d.mu[(1<<l)+i]
				lo, hi := d.blo[l][i], d.bhi[l][i]
				d.blo[l+1][2*i] = lo + math.Min(0, w)
				d.bhi[l+1][2*i] = hi + math.Max(0, w)
				d.blo[l+1][2*i+1] = lo - math.Max(0, w)
				d.bhi[l+1][2*i+1] = hi - math.Min(0, w)
			}
		}
	}
}

// mergeOrder writes into ord the local states of node i of exact level l
// in ascending order of incoming value. State 2p+c is parent state p
// under decision c; the parent's states come in ascending order of their
// own values (level 0's one node has the empty path's one state). Along
// them, the drop run's values v and the keep run's v+μ or v−μ are each
// non-decreasing, since fl(v ± μ) is non-decreasing in v, so the order is
// a two-way merge of the runs, the drop first among equals. A NaN value
// leaves the runs unsorted; ord is still a permutation, and the leaf
// sweep, which restarts its cursor wherever a list goes down, still
// prices every state right.
func (d *treeDP) mergeOrder(l, i int, ord []int32) {
	vs := d.vals[l][d.offs[l][i]:d.offs[l][i+1]]
	po := []int32{0}
	if l > 0 {
		po = d.ord[l-1][d.offs[l-1][i>>1]:d.offs[l-1][(i>>1)+1]]
	}
	a, b := 0, 0 // the drop run's and the keep run's next positions in po
	for k := range ord {
		if b == len(po) || (a < len(po) && !(vs[2*po[b]+1] < vs[2*po[a]])) {
			ord[k] = 2 * po[a]
			a++
		} else {
			ord[k] = 2*po[b] + 1
			b++
		}
	}
}

// snap buckets incoming value v onto the level-l grid of the node with
// local index i: the index of the nearest of the quant evenly spaced
// points spanning the node's bounds. Pure float arithmetic on (v, the
// node's fixed bounds) — independent of worker count and call site, so
// forward sweeps and backtracks bucket identically.
func (d *treeDP) snap(l, i int, v float64) int {
	step := d.gstep[l][i]
	if step == 0 {
		return 0
	}
	k := int(math.Round((v - d.blo[l][i]) / step))
	if k < 0 {
		return 0
	}
	if k >= d.quant {
		return d.quant - 1
	}
	return k
}

// leafTables fills out (length min(B,1)+1) with the budget table of the
// finest-level detail node j at incoming value v: out[0] drops the
// coefficient, out[1] (when the budget allows one) may retain it —
// "at most" semantics, so it is never worse than dropping.
// It is leafRows on a one-value list: the backtrack prices a leaf row by
// the forward sweep's own code, so their rows cannot drift apart.
func (d *treeDP) leafTables(j int, v float64, out []float64) {
	x := [1]float64{v}
	var sc [4]float64
	d.leafRows(j, x[:], out, sc[:])
}

// solveLevel computes level l's tables from the completed level below,
// dispatching the flattened (node, state) space of the nodes that hold a
// real item through the pool, then filling the zero nodes' suffix.
func (d *treeDP) solveLevel(l int) {
	offs := d.offs[l]
	// iz is the first node whose items [i·2^sh, (i+1)·2^sh) all lie in
	// the zero tail; 2^l when there is none.
	sh := d.levels - l
	iz := min(1<<l, (d.zero+1<<sh-1)>>sh)
	live := offs[iz]
	entries := d.bcap[l] + 1
	d.res[l] = resize(d.res[l], offs[1<<l]*entries) // every entry is written before it is read
	centries := min(d.B, 1) + 1
	if l != d.levels-2 {
		centries = d.bcap[l+1] + 1
	} else {
		parts := d.pool.Chunks(live * entries * centries)
		d.leafBuf, d.leafOrd = resize(d.leafBuf, parts), resize(d.leafOrd, parts)
	}
	// Result slots are derived from the state range; only the leaf
	// sweep's scratch from the chunk index.
	d.pool.MapChunks(0, live, live*entries*centries, func(w, lo, hi int) {
		d.solveStates(l, w, lo, hi)
	})
	d.solveZeroStates(l, iz)
}

// solveZeroStates fills the rows of level l's zero nodes, local indices
// i0..2^l-1. At and below such a node every μ is exactly +0 and every
// item's point error is the pad item's function, so keeping a coefficient
// hands the children the very values dropping it does, and every budget
// split sees the same two child entries: the general loop's row is
// constant, each entry the drop decision's budget-0 split. On the last
// internal level that is combine(combine(e, e), combine(e, e)), e the pad
// item's error at the state's value; above it, combine of entry 0 of the
// child rows the drop reaches (on a quantized child level, the grid
// points its values snap to). v+0 and v−0, the children's values under a
// drop, are v but for −0, which Err and snap read as +0. A split the
// general loop's strict comparisons never take (NaN, +Inf) leaves its
// +Inf. Counters keep the dense split count, one of them scanned, and one
// point error a state on the last internal level.
func (d *treeDP) solveZeroStates(l, i0 int) {
	offs := d.offs[l]
	if offs[i0] == offs[1<<l] {
		return
	}
	entries := d.bcap[l] + 1
	leaf := l == d.levels-2
	var crows []float64 // the child level's rows, centries floats a state
	var coffs []int
	centries := 0
	if !leaf {
		crows, coffs, centries = d.res[l+1], d.offs[l+1], d.bcap[l+1]+1
	}
	inf := math.Inf(1)
	for i := i0; i < 1<<l; i++ {
		for s := offs[i]; s < offs[i+1]; s++ {
			var x float64
			switch {
			case leaf:
				e := d.pe.Err(d.zero, d.vals[l][s])
				x = d.combine(d.combine(e, e), d.combine(e, e))
			case d.lq(l + 1):
				v := d.vals[l][s]
				cl := coffs[2*i] + d.snap(l+1, 2*i, v)
				cr := coffs[2*i+1] + d.snap(l+1, 2*i+1, v)
				x = d.combine(crows[cl*centries], crows[cr*centries])
			default:
				local := s - offs[i]
				x = d.combine(crows[(coffs[2*i]+2*local)*centries], crows[(coffs[2*i+1]+2*local)*centries])
			}
			if !(x < inf) {
				x = inf
			}
			out := d.res[l][s*entries : (s+1)*entries]
			for k := range out {
				out[k] = x
			}
		}
	}
	states := int64(offs[1<<l] - offs[i0])
	var dense int64
	for dd := 0; dd < 2 && entries-dd > 0; dd++ {
		m := int64(entries - dd)
		dense += m * (m + 1) / 2
	}
	st := hist.DPStats{CandidatesScanned: states, CandidatesPruned: states * (dense - 1)}
	if leaf {
		st.CostEvals = states
	}
	d.stats.Add(st)
}

// solveStates computes the level-l table entries of states [lo, hi) from
// the completed level below, in the serial operation order. A state's
// incoming value is read from d.vals where the level needs it: the last
// internal level, whose leaf children are priced inline
// (solveLeafStates), and a level above a quantized one, whose transitions
// snap. Every state is an independent slot, so any partition of a level
// into solveStates calls — the pool's chunks at any worker count —
// produces bit-identical tables. w is the dispatch chunk's index.
func (d *treeDP) solveStates(l, w, lo, hi int) {
	var st hist.DPStats
	if l == d.levels-2 {
		d.solveLeafStates(w, lo, hi, &st)
	} else {
		d.solveInnerStates(l, lo, hi, &st)
	}
	st.CandidatesPruned -= st.CandidatesScanned
	d.statsMu.Lock()
	d.stats.Add(st)
	d.statsMu.Unlock()
}

// solveInnerStates is solveStates for a level above the last internal
// one: each decision merges two kept child rows.
func (d *treeDP) solveInnerStates(l, lo, hi int, st *hist.DPStats) {
	offs, coffs := d.offs[l], d.offs[l+1]
	first := 1 << l
	entries := d.bcap[l] + 1
	centries := d.bcap[l+1] + 1
	qchild := d.lq(l + 1)
	i := sort.SearchInts(offs, lo+1) - 1
	for s := lo; s < hi; i++ {
		j := first + i
		end := min(hi, offs[i+1])
		for ; s < end; s++ {
			local := s - offs[i]
			var v float64
			if qchild {
				v = d.vals[l][s]
			}
			out := d.res[l][s*entries : (s+1)*entries]
			for k := range out {
				out[k] = math.Inf(1)
			}
			for dd := 0; dd < 2; dd++ { // drop, then keep
				var w float64
				shift := 0
				if dd > 0 {
					w = d.mu[j]
					shift = 1 // retaining j spends one coefficient
				}
				m := entries - shift // budgets 0..m-1 go to the children
				if m == 0 {
					break // B = 0: nothing to retain with
				}
				st.CandidatesPruned += int64(m * (m + 1) / 2) // the dense scan's splits; the scanned ones come off in solveStates
				var cl, cr int
				if qchild {
					// Quantized child level: bucket the exact child
					// values onto the children's grids.
					cl = coffs[2*i] + d.snap(l+1, 2*i, v+w)
					cr = coffs[2*i+1] + d.snap(l+1, 2*i+1, v-w)
				} else {
					cl = coffs[2*i] + 2*local + dd
					cr = coffs[2*i+1] + 2*local + dd
				}
				st.CandidatesScanned += d.merge(out[shift:],
					d.res[l+1][cl*centries:(cl+1)*centries], d.res[l+1][cr*centries:(cr+1)*centries])
			}
		}
	}
}

// solveLeafStates is solveStates for the last internal level, whose
// children are finest detail nodes priced inline. Pricing state by state
// would call leafTables, and so Err, once per state, decision and item;
// instead each node's states in [lo, hi) are taken in ascending order of
// incoming value (leafOrder), and each item is priced along the whole list
// by one errSweep per (decision, child decision) — a list that, shifted by
// constants, stays non-decreasing. leafRows then does leafTables' work on
// those point errors and mergeLeaves merges each state's rows, so every
// row sees the operations of the state-by-state loop, in its order, on
// Err's bits: every entry and counter is unchanged. Its scratch is
// chunk w's, sized by the states of one node.
func (d *treeDP) solveLeafStates(w, lo, hi int, st *hist.DPStats) {
	if lo >= hi {
		return // an empty dispatch chunk
	}
	l := d.levels - 2
	offs := d.offs[l]
	entries := d.bcap[l] + 1
	ce := min(d.B, 1) + 1 // entries of a leaf row
	i0 := sort.SearchInts(offs, lo+1) - 1
	span := offs[1] - offs[0] // every node of a level has as many states
	d.leafOrd[w] = resize(d.leafOrd[w], span)
	d.leafBuf[w] = resize(d.leafBuf[w], (7+2*ce)*span)
	sorted, buf := d.leafOrd[w], d.leafBuf[w]
	v, xl, xr, sc := buf[:span], buf[span:2*span], buf[2*span:3*span], buf[3*span:7*span]
	lt, rt := buf[7*span:(7+ce)*span], buf[(7+ce)*span:]
	for i := i0; offs[i] < hi; i++ {
		j := 1<<l + i
		ord := d.leafOrder(i, max(lo, offs[i])-offs[i], min(hi, offs[i+1])-offs[i], sorted)
		n := len(ord)
		rows := d.res[l][offs[i]*entries : offs[i+1]*entries]
		vs := d.vals[l][offs[i]:offs[i+1]]
		for k, s := range ord {
			v[k] = vs[s]
			out := rows[int(s)*entries : (int(s)+1)*entries]
			for e := range out {
				out[e] = math.Inf(1)
			}
		}
		// Err calls per state and decision: each leaf's drop pair, plus its
		// keep pair when a leaf row has a retaining entry.
		leafEvals := int64(4 + 4*(ce-1))
		for dd := 0; dd < 2; dd++ { // drop, then keep
			var w float64
			shift := 0
			if dd > 0 {
				w = d.mu[j]
				shift = 1 // retaining j spends one coefficient
			}
			m := entries - shift // budgets 0..m-1 go to the children
			if m == 0 {
				break // B = 0: nothing to retain with
			}
			st.CandidatesPruned += int64(n * m * (m + 1) / 2)
			st.CostEvals += int64(n) * leafEvals
			for k, x := range v[:n] {
				xl[k], xr[k] = x+w, x-w
			}
			d.leafRows(2*j, xl[:n], lt[:ce*n], sc)
			d.leafRows(2*j+1, xr[:n], rt[:ce*n], sc)
			st.CandidatesScanned += d.mergeLeaves(rows, entries, shift, ord, lt[:ce*n], rt[:ce*n])
		}
	}
}

// leafOrder returns the local states in [a, b) of the last internal
// level's node i in ascending order of incoming value: the grid's order
// on a quantized level, else the order mergeOrder merges into buf (which
// holds the node's states) from the parent's, filtered to the range when
// a dispatch chunk splits the node.
func (d *treeDP) leafOrder(i, a, b int, buf []int32) []int32 {
	l := d.levels - 2
	if d.lq(l) {
		buf = buf[:b-a]
		for k := range buf {
			buf[k] = int32(a + k)
		}
		return buf
	}
	full := buf[:d.offs[l][i+1]-d.offs[l][i]]
	d.mergeOrder(l, i, full)
	if b-a == len(full) {
		return full
	}
	m := 0
	for _, s := range full {
		if a <= int(s) && int(s) < b {
			full[m] = s
			m++
		}
	}
	return full[:m]
}

// leafRows is leafTables along a list of incoming values: tab[k·c:(k+1)·c]
// is finest detail node j's row at x[k], with c = len(tab)/len(x) its
// entries (1 or 2). A row's entry 0 drops j; its entry 1 is the lesser of
// drop and keeping μⱼ, which prices the children at v+μⱼ and v−μⱼ. The
// point errors come from errSweep, which has Err's bits. sc is scratch
// for 4·len(x) floats.
func (d *treeDP) leafRows(j int, x, tab, sc []float64) {
	n := len(x)
	c := len(tab) / n
	y, z, el, er := sc[:n], sc[n:2*n], sc[2*n:3*n], sc[3*n:4*n]
	li, ri, _ := haar.Children(j, d.n)
	d.pe.errSweep(li, x, el)
	d.pe.errSweep(ri, x, er)
	for k := range x {
		drop := d.combine(el[k], er[k])
		tab[k*c], tab[k*c+c-1] = drop, drop // a retaining entry starts at drop
	}
	if c == 1 {
		return
	}
	w := d.mu[j]
	for k, xv := range x {
		y[k], z[k] = xv+w, xv-w
	}
	d.pe.errSweep(li, y, el)
	d.pe.errSweep(ri, z, er)
	for k := range x {
		if r := d.combine(el[k], er[k]); r < tab[k*c+1] {
			tab[k*c+1] = r
		}
	}
}

// merge lowers out[b] to the best split of budget b between the children
// rows lt and rt (equal length, index = child budget), for every b, and
// returns how many splits it evaluated. The dense scan is
// min over bl in [0, b] of combine(lt[min(bl, c)], rt[min(b-bl, c)]) with
// c the rows' last index. Every row is non-increasing in budget as
// floats — a row is a min over a candidate set that grows with the
// budget, over children rows non-increasing by induction from
// leafTables, and the rounding of + and max is monotone — so a split
// that clamps one side is no better than the split that hands that side
// exactly c, and only the unclamped splits bl in [lo, hi] =
// [max(0, eb−c), min(eb, c)], eb = min(b, 2c), need evaluating; past
// b = 2c that is the one saturated split (lt[c], rt[c]). The window is
// indexed in place: split bl pairs lt[bl] with rt[eb−bl].
//
// For the maximum metrics the window pits a falling lt[bl] against a
// rising rt[eb−bl]: the minimum sits at their crossing, the first bl with
// lt[bl] ≤ rt[eb−bl], or one before it. The crossing never moves left as
// b grows: rt[eb+1−bl] ≤ rt[eb−bl], so a bl that fails the test at b
// fails it at b+1. So one cursor, clamped up to each budget's lo, walks
// forward across the whole row: O(B) a row.
//
// For the sum metrics the same monotonicity bounds every split beyond a
// point: every bl′ > bl in the window sums to ≥ lt[hi] + rt[eb−bl], and
// every bl′ < bl to ≥ lt[bl] + rt[eb−lo]. So the scan starts at the
// previous budget's best split, walks right and then left, and stops
// each side at the first bound ≥ best: no split past it can be strictly
// below best. Either way the result is the value the dense scan selects,
// and the same bits: no row holds −0 (Err never returns it, and neither
// + nor max makes it from operands that are not −0), so equal values are
// equal floats.
func (d *treeDP) merge(out, lt, rt []float64) (scanned int64) {
	c := len(lt) - 1
	// The sum metrics' walk starts at at, the left budget of the last best
	// split; the max metrics' cursor is at, the last budget's crossing.
	at := 0
	for b := range out {
		eb := min(b, 2*c)
		lo, hi := max(0, eb-c), min(eb, c)
		best := out[b]
		if d.cumulative {
			k0 := min(max(at, lo), hi)
			if x := lt[k0] + rt[eb-k0]; x < best {
				best, at = x, k0
			}
			lhi, rlo := lt[hi], rt[eb-lo] // the two stopping bounds' fixed terms
			k := k0 + 1
			for ; k <= hi && lhi+rt[eb-k] < best; k++ {
				if x := lt[k] + rt[eb-k]; x < best {
					best, at = x, k
				}
			}
			scanned += int64(k - k0)
			for k = k0 - 1; k >= lo && lt[k]+rlo < best; k-- {
				if x := lt[k] + rt[eb-k]; x < best {
					best, at = x, k
				}
			}
			scanned += int64(k0 - 1 - k)
		} else {
			at = max(at, lo)
			for at <= hi && lt[at] > rt[eb-at] {
				at++
			}
			if at > lo {
				if x := max(lt[at-1], rt[eb-at+1]); x < best {
					best = x
				}
				scanned++
			}
			if at <= hi {
				if x := max(lt[at], rt[eb-at]); x < best {
					best = x
				}
				scanned++
			}
		}
		out[b] = best
	}
	return scanned
}

// mergeLeaves is merge for the last internal level, whose children rows
// have at most two entries, over a node's states in a list: row ord[k] of
// rows (entries floats a row) is lowered from entry shift on by the
// splits between the leaf rows lt[k·c:(k+1)·c] and rt[k·c:(k+1)·c] — the
// splits of budget 0, 1 and >= 2 in closed form, each evaluated only when
// the row has an entry for it. It returns how many splits it evaluated.
func (d *treeDP) mergeLeaves(rows []float64, entries, shift int, ord []int32, lt, rt []float64) (scanned int64) {
	c := len(lt) / len(ord)
	m := entries - shift // entries a row takes from this decision
	per := 1             // splits a row
	if c > 1 && m > 1 {
		per = min(m, 3) + 1 // budget 1's two splits, and budget 2's when the row has it
	}
	for k, s := range ord {
		l0, l1, r0, r1 := lt[k*c], lt[k*c+c-1], rt[k*c], rt[k*c+c-1]
		x := [3]float64{d.combine(l0, r0)}
		if per > 1 {
			x[1] = d.combine(l0, r1)
			if y := d.combine(l1, r0); y < x[1] {
				x[1] = y
			}
			if per > 3 {
				x[2] = d.combine(l1, r1)
			}
		}
		out := rows[int(s)*entries+shift : (int(s)+1)*entries]
		for b := range out {
			if y := x[min(b, 2)]; y < out[b] {
				out[b] = y
			}
		}
	}
	return int64(per * len(ord))
}

// extract re-derives the optimal retained set and cost at budget b
// (clamped as rootBest clamps it) from the kept tables: the root scan and
// backtrack perform exactly the operations a budget-b DP's finish would,
// so the extracted solution is bit-identical to an independent budget-b
// build. It only reads the tables — concurrent extractions at different
// budgets are safe.
func (d *treeDP) extract(b int) ([]coefChoice, float64) {
	bestD, rest, best := d.rootBest(b)
	var keep []coefChoice
	var v float64
	if bestD > 0 {
		v = d.mu[0]
		keep = append(keep, coefChoice{0, v})
	}
	d.walk(0, 1, bestD, v, rest, &keep)
	return keep, best
}

// synopsis extracts the budget-b synopsis and prices it: at the table's
// optimum, or — the quantized table being only approximate — by exact
// re-evaluation.
func (d *treeDP) synopsis(b int) *Synopsis {
	keep, best := d.extract(b)
	syn := synopsisFromChoices(d.n, keep)
	syn.Cost = best
	if d.quant > 0 {
		syn.Cost = d.pe.SynopsisError(syn)
	}
	return syn
}

// cost returns only the optimal expected error at budget b (no
// backtrack) — the cheap half of extract, for frontier cost curves.
func (d *treeDP) cost(b int) float64 {
	_, _, best := d.rootBest(b)
	return best
}

// rootBest scans the root's c0 decisions at budget b — drop first, then
// keep, with strict <, matching the forward tie-break —
// and returns the winning decision, the budget it leaves the detail tree
// and its cost. The subtree under a decision is read from the level-0
// table or, at n == 2 (no table is kept), priced by leafTables. b is
// clamped to [0, B].
func (d *treeDP) rootBest(b int) (bestD, rest int, best float64) {
	b = max(min(b, d.B), 0)
	under := func(dd int) float64 {
		v, bd := 0.0, b-min(dd, 1)
		if dd > 0 {
			v = d.mu[0]
		}
		if d.levels == 1 {
			var tbl [2]float64
			d.leafTables(1, v, tbl[:min(bd, 1)+1])
			return tbl[min(bd, 1)]
		}
		return d.res[0][dd*(d.bcap[0]+1)+min(bd, d.bcap[0])]
	}
	best = under(0)
	if b >= 1 {
		if c := under(1); c < best {
			best, bestD = c, 1
		}
	}
	return bestD, b - min(bestD, 1), best
}

// walk re-derives the argmin decisions of node j (level l, state local,
// incoming value v, budget b), appending retained coefficients to keep.
// Decisions are scanned in the forward order — drop with the smallest
// left budget first, then keep — with <=, so ties resolve
// deterministically and independently of the worker count.
func (d *treeDP) walk(l, j, local int, v float64, b int, keep *[]coefChoice) {
	if l == d.levels-1 {
		d.walkLeaf(j, v, b, keep)
		return
	}
	offs := d.offs[l]
	i := j - 1<<l
	entries := d.bcap[l] + 1
	flat := offs[i] + local
	out := d.res[l][flat*entries : (flat+1)*entries]
	tgt := out[min(b, d.bcap[l])]
	fused := l == d.levels-2
	ccap := min(d.B, 1)
	centries := 0
	if !fused {
		ccap = d.bcap[l+1]
		centries = ccap + 1
	}
	var lbuf, rbuf [2]float64
	// resolve maps decision dd to the two children's local states and
	// incoming values. On a quantized child level the exact child value
	// v±μⱼ is bucketed to the child's grid and replaced by the grid value
	// — exactly the forward sweep's transition — so the descent keeps
	// reproducing the forward argmin comparisons bit for bit.
	resolve := func(dd int) (locL, locR int, vl, vr float64) {
		var w float64
		if dd > 0 {
			w = d.mu[j]
		}
		vl, vr = v+w, v-w
		if fused {
			return 0, 0, vl, vr
		}
		if d.lq(l + 1) {
			locL = d.snap(l+1, 2*i, vl)
			locR = d.snap(l+1, 2*i+1, vr)
			vl = d.vals[l+1][d.offs[l+1][2*i]+locL]
			vr = d.vals[l+1][d.offs[l+1][2*i+1]+locR]
			return locL, locR, vl, vr
		}
		locL = 2*local + dd
		return locL, locL, vl, vr
	}
	childTables := func(locL, locR int, vl, vr float64) (lt, rt []float64) {
		if fused {
			d.leafTables(2*j, vl, lbuf[:ccap+1])
			d.leafTables(2*j+1, vr, rbuf[:ccap+1])
			return lbuf[:ccap+1], rbuf[:ccap+1]
		}
		cl := d.offs[l+1][2*i] + locL
		cr := d.offs[l+1][2*i+1] + locR
		return d.res[l+1][cl*centries : (cl+1)*centries],
			d.res[l+1][cr*centries : (cr+1)*centries]
	}
	locL, locR, vl, vr := resolve(0)
	lt, rt := childTables(locL, locR, vl, vr)
	for bl := 0; bl <= b; bl++ {
		if d.combine(lt[min(bl, ccap)], rt[min(b-bl, ccap)]) <= tgt {
			d.walk(l+1, 2*j, locL, vl, bl, keep)
			d.walk(l+1, 2*j+1, locR, vr, b-bl, keep)
			return
		}
	}
	if b >= 1 {
		locL, locR, vl, vr := resolve(1)
		lt, rt := childTables(locL, locR, vl, vr)
		for bl := 0; bl <= b-1; bl++ {
			if d.combine(lt[min(bl, ccap)], rt[min(b-1-bl, ccap)]) <= tgt {
				*keep = append(*keep, coefChoice{j, d.mu[j]})
				d.walk(l+1, 2*j, locL, vl, bl, keep)
				d.walk(l+1, 2*j+1, locR, vr, b-1-bl, keep)
				return
			}
		}
	}
	// Floating-point slack: fall back to the best drop split.
	locL, locR, vl, vr = resolve(0)
	lt, rt = childTables(locL, locR, vl, vr)
	bestBl, bestC := 0, math.Inf(1)
	for bl := 0; bl <= b; bl++ {
		if c := d.combine(lt[min(bl, ccap)], rt[min(b-bl, ccap)]); c < bestC {
			bestC, bestBl = c, bl
		}
	}
	d.walk(l+1, 2*j, locL, vl, bestBl, keep)
	d.walk(l+1, 2*j+1, locR, vr, b-bestBl, keep)
}

// walkLeaf re-derives a finest-level node's decision: retain only when
// strictly better than dropping (ties prefer the smaller synopsis).
func (d *treeDP) walkLeaf(j int, v float64, b int, keep *[]coefChoice) {
	if b < 1 {
		return
	}
	li, ri, _ := haar.Children(j, d.n)
	w := d.mu[j]
	if d.combine(d.pe.Err(li, v+w), d.pe.Err(ri, v-w)) < d.combine(d.pe.Err(li, v), d.pe.Err(ri, v)) {
		*keep = append(*keep, coefChoice{j, w})
	}
}

// pathLocal returns the local (within-level) index of the level-l
// ancestor node of leaf item it.
func (d *treeDP) pathLocal(l, it int) int { return it >> (d.levels - l) }

// errorBound bounds the quantized DP's additive suboptimality: the true
// expected error of any synopsis it extracts is within the returned
// bound of the exact restricted optimum (0 in exact mode). The argument
// is §4.2's bound-and-quantize one, applied twice. Each item's
// reconstruction value drifts from its exact counterpart by at most
// Δ_i = Σ half-grid-steps along its path's quantized levels, and the
// per-item error function is Lipschitz on the reachable value interval,
// so (1) replaying the exact optimum through the snapped DP shows
// table ≤ OPT + E, and (2) re-evaluating the extracted synopsis exactly
// shows true ≤ table + E — hence true ≤ OPT + 2E, with E the Σ (or max,
// for maximum metrics) of the per-item Lipschitz·Δ_i terms.
func (d *treeDP) errorBound() float64 {
	if d.quant == 0 || d.levels < 2 {
		return 0
	}
	L := d.levels
	total, worst := 0.0, 0.0
	for i := 0; i < d.n; i++ {
		delta := 0.0
		for l := 0; l <= L-2; l++ {
			if d.lq(l) {
				delta += float64(d.gstep[l][d.pathLocal(l, i)] / 2)
			}
		}
		if delta == 0 {
			continue
		}
		// The item's reachable reconstruction values: its L-2 ancestor's
		// bounds extended by the two finest decisions and the drift.
		i2 := d.pathLocal(L-2, i)
		ext := math.Abs(d.mu[(1<<(L-2))+i2]) +
			math.Abs(d.mu[(1<<(L-1))+i/2]) + delta
		lo := d.blo[L-2][i2] - ext
		hi := d.bhi[L-2][i2] + ext
		e := d.pe.errSlack(i, lo, hi, delta)
		total += e
		if e > worst {
			worst = e
		}
	}
	if d.cumulative {
		return 2 * total
	}
	return 2 * worst
}

// synopsisFromChoices assembles a sparse synopsis from retained
// (index, value) choices.
func synopsisFromChoices(n int, keep []coefChoice) *Synopsis {
	sort.Slice(keep, func(a, b int) bool { return keep[a].idx < keep[b].idx })
	s := &Synopsis{N: n, Indices: make([]int, len(keep)), Values: make([]float64, len(keep))}
	for k, c := range keep {
		s.Indices[k] = c.idx
		s.Values[k] = c.val
	}
	return s
}
