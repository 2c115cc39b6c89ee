package wavelet

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"probsyn/internal/engine"
	"probsyn/internal/haar"
	"probsyn/internal/hist"
)

// This file implements the coefficient-tree dynamic program shared by the
// restricted (Theorem 8) and unrestricted (§4.2 sketch) thresholding
// problems as a bottom-up, level-by-level sweep over the Haar error tree.
//
// A DP state is (node j, ancestor decisions): every subset of j's
// ancestors that is retained — each at one of its candidate values —
// determines the "incoming value" v that the ancestors contribute to j's
// support, and the table OPTW[j, state][b] holds the minimal expected
// subtree error with at most b coefficients retained below (and at) j.
// States of one level depend only on the completed level below, so each
// level is a flat array of independent slots dispatched through the
// engine pool; the parallel schedule is bit-identical to the serial one
// at any worker count because no cross-worker reduction exists — every
// slot is computed by one worker in the serial operation order.
//
// Layout. Level l holds detail nodes [2^l, 2^{l+1}); a node whose parent
// block has S states and whose parent branches br ways (drop + one branch
// per candidate value) has S·br states, stored contiguously with the
// parent state as the high digits (child state = parent state · br +
// decision). Budget axes are capped at the subtree coefficient count —
// entries beyond the cap would only repeat the saturated value, so reads
// clamp instead (res[min(b, cap)]). The finest detail level (whose
// children are data items) is never materialized: its two-entry tables
// are recomputed inline from PointErrors both by its parents' sweep and
// by the backtrack, which re-derives every argmin decision from the kept
// level tables.
//
// Quantized mode (restricted DP only). Exact ancestor-decision state
// counts double per level — 2^(l+1) states per node at level l — which is
// what makes the restricted DP O(n²B²). With quant = q > 0, any level
// whose per-node exact count would exceed q instead keeps q states per
// node: a uniform grid of q incoming values spanning the node's analytic
// value bounds (the paper's §4.2 "bound and quantize" argument). A
// transition into a quantized level snaps the exact child value v±w to
// the nearest grid point; everything else — decision order, tie-breaks,
// the budget convolution — is unchanged, so quantized results stay
// bit-identical at any worker count and across sweep extractions for the
// same reason exact ones do. The DP's internal objective is then only
// approximate; extraction re-evaluates the chosen synopsis exactly
// (PointErrors.SynopsisError) and errorBound() bounds the gap to the
// exact optimum.

// maxTreeStates bounds one level's ancestor-decision state count. The
// restricted DP stays quadratic (2^depth states over 2^depth nodes at the
// finest kept level), but the unrestricted DP grows as the product of
// candidate-set sizes along the path, so runaway (n, q) combinations fail
// fast with an error instead of exhausting memory.
const maxTreeStates = 1 << 26

// coefChoice is one retained coefficient: its index and stored value.
type coefChoice struct {
	idx int
	val float64
}

type treeDP struct {
	n          int // padded domain size, power of two, >= 2
	levels     int // log2 n: detail levels of the error tree
	B          int // coefficient budget ("at most B"), already clamped to n
	quant      int // incoming-value grid size per node; 0 = exact
	cands      [][]float64
	pe         *PointErrors
	cumulative bool
	pool       *engine.Pool

	// Per-level tables, built bottom-up and kept for the backtrack; only
	// levels 0..levels-2 are materialized (see the layout note above).
	res  [][]float64 // res[l]: flat [state][0..bcap[l]] blocks
	offs [][]int     // offs[l][i]: first state of node 2^l+i; last entry = level total
	bcap []int       // bcap[l] = min(B, subtree coefficient count)

	// vals[l][state] is the state's incoming value, written top-down by
	// buildGrids. An exact DP keeps the last internal level's only — the
	// one level it reads; a quantized DP (quant > 0) keeps every level's,
	// with the per-node analytic value bounds and grid steps its snapped
	// transitions bucket against.
	vals  [][]float64
	blo   [][]float64 // blo[l][i], bhi[l][i]: incoming-value bounds of node 2^l+i
	bhi   [][]float64
	gstep [][]float64 // gstep[l][i]: grid step on quantized levels, else 0

	// Work of every solveStates call so far (forward sweep plus repairs),
	// added once per call under mu: budget splits merge evaluated, the
	// rest of the dense scan's splits (clamped, saturated, or off the
	// crossing), and PointErrors.Err calls. All three are sums over
	// states, so they are the same at every worker count.
	mu    sync.Mutex
	stats hist.DPStats
}

// newTreeDP executes the shared DP's forward level sweeps through the
// pool and returns the solved table set. cands[j] lists the candidate
// retained values of coefficient j (the restricted problem passes exactly
// its expected value); cands[0] is the overall average c0. The kept level
// tables answer extract(b) for every budget b <= B: an entry at budget
// index b' is computed only from child entries at budgets <= b', so the
// prefix of each table up to b is identical to the table a budget-b DP
// would have built — one forward run serves the whole budget frontier.
//
// quant > 0 selects quantized mode (restricted candidate shape only —
// exactly one candidate per coefficient): per-node incoming-value rows
// are capped at quant grid states. A grid at least as fine as the
// largest exact level changes nothing, so quant >= 2^(levels-1) is
// normalized to exact mode and yields bit-identical results.
func newTreeDP(n, B int, cands [][]float64, pe *PointErrors, cumulative bool, quant int, pool *engine.Pool) (*treeDP, error) {
	if pool == nil {
		pool = engine.Serial()
	}
	d := &treeDP{
		n: n, levels: bits.Len(uint(n)) - 1, B: B,
		cands: cands, pe: pe, cumulative: cumulative, pool: pool,
	}
	if quant > 0 {
		if quant < 2 {
			return nil, fmt.Errorf("wavelet: incoming-value quantization needs q >= 2, got %d", quant)
		}
		for _, cs := range cands {
			if len(cs) != 1 {
				return nil, fmt.Errorf("wavelet: quantized incoming values require the restricted candidate shape (one candidate per coefficient)")
			}
		}
		if quant >= 1<<(d.levels-1) {
			quant = 0
		}
	}
	d.quant = quant
	if d.levels == 1 {
		return d, nil // n == 2: extract enumerates the two nodes directly
	}
	if err := d.layout(); err != nil {
		return nil, err
	}
	d.buildGrids()
	d.res = make([][]float64, d.levels-1)
	for l := d.levels - 2; l >= 0; l-- {
		d.solveLevel(l)
	}
	return d, nil
}

func (d *treeDP) combine(a, b float64) float64 {
	if d.cumulative {
		return a + b
	}
	return max(a, b)
}

// br returns node j's branch count: drop, or retain at one candidate.
func (d *treeDP) br(j int) int { return 1 + len(d.cands[j]) }

// lq reports whether level l's per-node states sit on a quantized grid:
// its exact ancestor-decision count 2^(l+1) would exceed the grid size.
func (d *treeDP) lq(l int) bool { return d.quant > 0 && 1<<(l+1) > d.quant }

// layout computes the per-level state offsets and budget caps, rejecting
// state spaces beyond maxTreeStates. In quantized mode per-node counts
// are capped at quant.
func (d *treeDP) layout() error {
	L := d.levels
	d.offs = make([][]int, L-1)
	d.bcap = make([]int, L-1)
	counts := []int{d.br(0)} // level 0: node 1, one state per c0 decision
	for l := 0; l <= L-2; l++ {
		d.bcap[l] = min(d.B, (1<<(L-l))-1)
		offs := make([]int, len(counts)+1)
		total := 0
		for i, c := range counts {
			offs[i] = total
			total += c
			if total > maxTreeStates {
				return d.stateOverflowErr(l, levelTotal(counts))
			}
		}
		offs[len(counts)] = total
		d.offs[l] = offs
		if l == L-2 {
			break
		}
		next := make([]int, 2*len(counts))
		for i, c := range counts {
			b := d.br((1 << l) + i)
			if c > maxTreeStates/b {
				need := 0.0
				for i2, c2 := range counts {
					need += 2 * float64(c2) * float64(d.br((1<<l)+i2))
				}
				return d.stateOverflowErr(l+1, need)
			}
			cb := c * b
			if d.quant > 0 && cb > d.quant {
				cb = d.quant
			}
			next[2*i] = cb
			next[2*i+1] = cb
		}
		counts = next
	}
	return nil
}

// levelTotal sums per-node state counts in float64, so an overflowing
// demand can still be reported exactly as computed.
func levelTotal(counts []int) float64 {
	t := 0.0
	for _, c := range counts {
		t += float64(c)
	}
	return t
}

// stateOverflowErr builds the maxTreeStates diagnostic: the level that
// overflowed, the state count it actually needs, and the largest
// quantization that would fit. The finest kept level L-2 has 2^(L-2)
// nodes, so a quantized restricted DP holds at most 2^(L-2)·q states per
// level; the unrestricted DP's per-node branch count is at most 2q+2
// (drop + mean + 2q grid candidates), giving ~2^(L-2)·(2q+2)^(L-1)
// states at the finest kept level.
func (d *treeDP) stateOverflowErr(l int, need float64) error {
	msg := fmt.Sprintf("wavelet: coefficient-tree DP needs %.4g states at level %d, over the %d cap", need, l, maxTreeStates)
	restricted := true
	for _, cs := range d.cands {
		if len(cs) != 1 {
			restricted = false
			break
		}
	}
	if restricted {
		qfit := 0
		if s := d.levels - 2; s >= 0 && s < 62 {
			qfit = maxTreeStates >> s
		}
		switch {
		case qfit >= 2 && d.quant > 0:
			return fmt.Errorf("%s; reduce the quantization to q <= %d", msg, qfit)
		case qfit >= 2:
			return fmt.Errorf("%s; a quantized build with q <= %d fits", msg, qfit)
		default:
			return fmt.Errorf("%s; the domain is too large for any quantization", msg)
		}
	}
	if d.levels >= 2 {
		bstar := math.Pow(float64(maxTreeStates)/math.Pow(2, float64(d.levels-2)), 1/float64(d.levels-1))
		if q := int((bstar - 2) / 2); q >= 1 {
			return fmt.Errorf("%s; reduce the candidate quantization to q <= %d", msg, q)
		}
	}
	return fmt.Errorf("%s; reduce the domain", msg)
}

// buildGrids is the one top-down pass over the incoming value v of the
// paper's OPTW[j, b, v] state: the reconstruction value a state's retained
// ancestors contribute to its node's support. An exact level enumerates
// its parent level's states against the parent node's decisions (drop
// keeps v; candidate w gives the left child v+w, the right v-w), in the
// layout's digit order. A quantized level instead lays quant evenly
// spaced grid points per node across that node's analytic value bounds,
// which accumulate top-down — a child of node j with candidate w widens
// its parent's interval by w's contribution on that side — so every
// reachable incoming value, exact or already snapped, stays inside them.
// Only the last internal level prices leaves from its values, so an exact
// DP drops each level's once the level below is written; the quantized
// DP's transitions and backtrack read every level's.
func (d *treeDP) buildGrids() {
	L := d.levels
	d.vals = make([][]float64, L-1)
	if d.quant > 0 {
		d.blo = make([][]float64, L-1)
		d.bhi = make([][]float64, L-1)
		d.gstep = make([][]float64, L-1)
		for l := range d.blo {
			d.blo[l] = make([]float64, 1<<l)
			d.bhi[l] = make([]float64, 1<<l)
			d.gstep[l] = make([]float64, 1<<l)
		}
		w0 := d.cands[0][0]
		d.blo[0][0] = math.Min(0, w0)
		d.bhi[0][0] = math.Max(0, w0)
	}
	for l := 0; l <= L-2; l++ {
		d.vals[l] = make([]float64, d.offs[l][1<<l])
		for i := 0; i < 1<<l; i++ {
			vs := d.vals[l][d.offs[l][i]:d.offs[l][i+1]]
			switch {
			case d.lq(l):
				lo := d.blo[l][i]
				step := (d.bhi[l][i] - lo) / float64(d.quant-1)
				d.gstep[l][i] = step
				for k := range vs {
					vs[k] = lo + float64(k)*step
				}
			case l == 0:
				copy(vs[1:], d.cands[0]) // state 0 drops c0: incoming value 0
			default:
				// The parent level is exact too: quantization only deepens.
				pi := i >> 1
				ws := d.cands[(1<<(l-1))+pi]
				br := 1 + len(ws)
				for s, v := range d.vals[l-1][d.offs[l-1][pi]:d.offs[l-1][pi+1]] {
					vs[s*br] = v
					for c, w := range ws {
						if i&1 == 0 {
							vs[s*br+c+1] = v + w
						} else {
							vs[s*br+c+1] = v - w
						}
					}
				}
			}
		}
		switch {
		case d.quant == 0:
			if l > 0 {
				d.vals[l-1] = nil
			}
		case l < L-2:
			for i := 0; i < 1<<l; i++ {
				w := d.cands[(1<<l)+i][0]
				lo, hi := d.blo[l][i], d.bhi[l][i]
				d.blo[l+1][2*i] = lo + math.Min(0, w)
				d.bhi[l+1][2*i] = hi + math.Max(0, w)
				d.blo[l+1][2*i+1] = lo - math.Max(0, w)
				d.bhi[l+1][2*i+1] = hi - math.Min(0, w)
			}
		}
	}
}

// snap buckets incoming value v onto the level-l grid of the node with
// local index i: the index of the nearest of the quant evenly spaced
// points spanning the node's bounds. Pure float arithmetic on (v, the
// node's fixed bounds) — independent of worker count and call site, so
// forward sweeps, repairs, and backtracks bucket identically.
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
// coefficient, out[1] (when the budget allows one) may retain the best
// candidate — "at most" semantics, so it is never worse than dropping.
func (d *treeDP) leafTables(j int, v float64, out []float64) {
	li, ri, _ := haar.Children(j, d.n)
	drop := d.combine(d.pe.Err(li, v), d.pe.Err(ri, v))
	out[0] = drop
	if len(out) > 1 {
		best := drop
		for _, w := range d.cands[j] {
			if r := d.combine(d.pe.Err(li, v+w), d.pe.Err(ri, v-w)); r < best {
				best = r
			}
		}
		out[1] = best
	}
}

// solveLevel computes level l's tables from the completed level below,
// dispatching the flattened (node, state) space through the pool.
func (d *treeDP) solveLevel(l int) {
	offs := d.offs[l]
	total := offs[1<<l]
	entries := d.bcap[l] + 1
	d.res[l] = make([]float64, total*entries)
	centries := min(d.B, 1) + 1
	if l != d.levels-2 {
		centries = d.bcap[l+1] + 1
	}
	// Result slots are derived from the state range, not the chunk index.
	d.pool.MapChunks(0, total, total*entries*centries, func(_, lo, hi int) {
		d.solveStates(l, lo, hi)
	})
}

// solveStates computes the level-l table entries of states [lo, hi) from
// the completed level below, in the serial operation order. A state's
// incoming value is read from d.vals where the level needs it: the last
// internal level, whose leaf children are priced inline, and a level
// above a quantized one, whose transitions snap. Every state is an
// independent slot, so any partition of a level into solveStates calls —
// the pool's chunks, a repair's dirty blocks — produces bit-identical
// tables.
func (d *treeDP) solveStates(l, lo, hi int) {
	offs := d.offs[l]
	first := 1 << l
	entries := d.bcap[l] + 1
	fused := l == d.levels-2
	var coffs []int
	ccap := min(d.B, 1)
	if !fused {
		coffs = d.offs[l+1]
		ccap = d.bcap[l+1]
	}
	centries := ccap + 1
	var lbuf, rbuf [2]float64
	var st hist.DPStats
	qchild := !fused && d.lq(l+1)
	i := sort.SearchInts(offs, lo+1) - 1
	for s := lo; s < hi; i++ {
		j := first + i
		end := min(hi, offs[i+1])
		br := d.br(j)
		var leafEvals int64 // Err calls per decision: each leaf's drop pair, plus a pair per candidate
		if fused {
			leafEvals = int64(4 + 2*ccap*(len(d.cands[2*j])+len(d.cands[2*j+1])))
		}
		for ; s < end; s++ {
			local := s - offs[i]
			var v float64
			if fused || qchild {
				v = d.vals[l][s]
			}
			out := d.res[l][s*entries : (s+1)*entries]
			for k := range out {
				out[k] = math.Inf(1)
			}
			for dd := 0; dd < br; dd++ {
				var w float64
				shift := 0
				if dd > 0 {
					w = d.cands[j][dd-1]
					shift = 1 // retaining j spends one coefficient
				}
				m := entries - shift // budgets 0..m-1 go to the children
				if m == 0 {
					break // B = 0: nothing to retain with
				}
				st.CandidatesPruned += int64(m * (m + 1) / 2) // the dense scan's splits; the scanned ones come off below
				if fused {
					lt, rt := lbuf[:centries], rbuf[:centries]
					d.leafTables(2*j, v+w, lt)
					d.leafTables(2*j+1, v-w, rt)
					st.CostEvals += leafEvals
					st.CandidatesScanned += d.mergeLeaves(out[shift:], lt, rt)
					continue
				}
				var cl, cr int
				if qchild {
					// Quantized child level: bucket the exact child
					// values onto the children's grids.
					cl = coffs[2*i] + d.snap(l+1, 2*i, v+w)
					cr = coffs[2*i+1] + d.snap(l+1, 2*i+1, v-w)
				} else {
					cl = coffs[2*i] + local*br + dd
					cr = coffs[2*i+1] + local*br + dd
				}
				st.CandidatesScanned += d.merge(out[shift:],
					d.res[l+1][cl*centries:(cl+1)*centries], d.res[l+1][cr*centries:(cr+1)*centries])
			}
		}
	}
	st.CandidatesPruned -= st.CandidatesScanned
	d.mu.Lock()
	d.stats.Add(st)
	d.mu.Unlock()
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
// exactly c, and only the unclamped splits need evaluating; past b = 2c
// that is the one saturated split (lt[c], rt[c]). For the maximum
// metrics the unclamped splits pit a falling row against a rising one:
// the minimum sits at their crossing, found by binary search.
//
// For the sum metrics the same monotonicity bounds every split beyond a
// point: with n = len(l), l[k′] + r[n−1−k′] ≥ l[n−1] + r[n−1−k] for all
// k′ ≥ k, and ≥ l[k] + r[n−1] for all k′ ≤ k. So the scan starts at the
// previous budget's best split, walks right and then left, and stops each
// side at the first bound ≥ best: no split past it can be strictly below
// best. Either way the result is the value the dense scan selects, and
// the same bits: no row holds −0 (Err never returns it, and neither + nor
// max makes it from operands that are not −0), so equal values are equal
// floats.
func (d *treeDP) merge(out, lt, rt []float64) (scanned int64) {
	c := len(lt) - 1
	at := 0 // left budget of the last best split: where the next walk starts
	for b := range out {
		eb := min(b, 2*c)
		lo, hi := max(0, eb-c), min(eb, c)
		l, r := lt[lo:hi+1], rt[eb-hi:eb-lo+1] // l[k] splits against r[len(l)-1-k]
		best := out[b]
		if d.cumulative {
			n := len(l)
			k0 := min(max(at-lo, 0), n-1)
			if x := l[k0] + r[n-1-k0]; x < best {
				best, at = x, lo+k0
			}
			k := k0 + 1
			for ; k < n && l[n-1]+r[n-1-k] < best; k++ {
				if x := l[k] + r[n-1-k]; x < best {
					best, at = x, lo+k
				}
			}
			scanned += int64(k - k0)
			for k = k0 - 1; k >= 0 && l[k]+r[n-1] < best; k-- {
				if x := l[k] + r[n-1-k]; x < best {
					best, at = x, lo+k
				}
			}
			scanned += int64(k0 - 1 - k)
		} else {
			k, n := 0, len(l) // first k with l[k] <= r's opposite entry
			for k < n {
				if mid := int(uint(k+n) >> 1); l[mid] <= r[len(l)-1-mid] {
					n = mid
				} else {
					k = mid + 1
				}
			}
			if k > 0 {
				if x := max(l[k-1], r[len(l)-k]); x < best {
					best = x
				}
				scanned++
			}
			if k < len(l) {
				if x := max(l[k], r[len(l)-1-k]); x < best {
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
// have at most two entries: the splits of budget 0, 1 and >= 2 in closed
// form, each evaluated only when out has an entry for it.
func (d *treeDP) mergeLeaves(out, lt, rt []float64) (scanned int64) {
	c := [3]float64{d.combine(lt[0], rt[0])}
	scanned = 1
	if len(lt) > 1 && len(out) > 1 {
		c[1] = d.combine(lt[0], rt[1])
		if x := d.combine(lt[1], rt[0]); x < c[1] {
			c[1] = x
		}
		scanned = 3
		if len(out) > 2 {
			c[2] = d.combine(lt[1], rt[1])
			scanned = 4
		}
	}
	for b := range out {
		if x := c[min(b, 2)]; x < out[b] {
			out[b] = x
		}
	}
	return scanned
}

// extract re-derives the optimal retained set and cost at budget b
// (clamped as rootBest clamps it) from the kept tables: the root scan and
// backtrack perform exactly the operations a budget-b DP's finish would,
// so the extracted solution is bit-identical to an independent budget-b
// build. It only reads the tables — concurrent extractions at different
// budgets are safe.
func (d *treeDP) extract(b int, forced bool) ([]coefChoice, float64) {
	bestD, rest, best := d.rootBest(b, forced)
	var keep []coefChoice
	var v float64
	if bestD > 0 {
		v = d.cands[0][bestD-1]
		keep = append(keep, coefChoice{0, v})
	}
	d.walk(0, 1, bestD, v, rest, &keep)
	return keep, best
}

// synopsis extracts the budget-b synopsis and prices it: at the table's
// optimum, or — the quantized table being only approximate — by exact
// re-evaluation.
func (d *treeDP) synopsis(b int, forced bool) *Synopsis {
	keep, best := d.extract(b, forced)
	syn := synopsisFromChoices(d.n, keep)
	syn.Cost = best
	if d.quant > 0 {
		syn.Cost = d.pe.SynopsisError(syn)
	}
	return syn
}

// cost returns only the optimal expected error at budget b (no
// backtrack) — the cheap half of extract, for frontier cost curves.
func (d *treeDP) cost(b int, forced bool) float64 {
	_, _, best := d.rootBest(b, forced)
	return best
}

// rootBest scans the root's c0 decisions at budget b — drop first, then
// candidates in order, with strict <, matching the forward tie-break —
// and returns the winning decision, the budget it leaves the detail tree
// and its cost. The subtree under a decision is read from the level-0
// table or, at n == 2 (no table is kept), priced by leafTables.
//
// forced skips the drop decision: the optimum over solutions that RETAIN
// the root coefficient, bit-identically to a DP that never had the drop
// option (same tables, same comparisons among the candidates). b is
// clamped to [0, B], or to [1, B] when forced — it includes the root.
func (d *treeDP) rootBest(b int, forced bool) (bestD, rest int, best float64) {
	if forced {
		bestD = 1
	}
	b = max(min(b, d.B), bestD)
	under := func(dd int) float64 {
		v, bd := 0.0, b-min(dd, 1)
		if dd > 0 {
			v = d.cands[0][dd-1]
		}
		if d.levels == 1 {
			var tbl [2]float64
			d.leafTables(1, v, tbl[:min(bd, 1)+1])
			return tbl[min(bd, 1)]
		}
		return d.res[0][dd*(d.bcap[0]+1)+min(bd, d.bcap[0])]
	}
	best = under(bestD)
	for dd := bestD + 1; dd <= len(d.cands[0]) && b >= 1; dd++ {
		if c := under(dd); c < best {
			best, bestD = c, dd
		}
	}
	return bestD, b - min(bestD, 1), best
}

// walk re-derives the argmin decisions of node j (level l, state local,
// incoming value v, budget b), appending retained coefficients to keep.
// Decisions are scanned in the forward order — drop with the smallest
// left budget first, then candidates — with <=, so ties resolve
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
	br := d.br(j)
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
	// v±w is bucketed to the child's grid and replaced by the grid value
	// — exactly the forward sweep's transition — so the descent keeps
	// reproducing the forward argmin comparisons bit for bit.
	resolve := func(dd int) (locL, locR int, vl, vr float64) {
		var w float64
		if dd > 0 {
			w = d.cands[j][dd-1]
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
		locL = local*br + dd
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
		for c, w := range d.cands[j] {
			locL, locR, vl, vr := resolve(c + 1)
			lt, rt := childTables(locL, locR, vl, vr)
			for bl := 0; bl <= b-1; bl++ {
				if d.combine(lt[min(bl, ccap)], rt[min(b-1-bl, ccap)]) <= tgt {
					*keep = append(*keep, coefChoice{j, w})
					d.walk(l+1, 2*j, locL, vl, bl, keep)
					d.walk(l+1, 2*j+1, locR, vr, b-1-bl, keep)
					return
				}
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
// strictly better than dropping (ties prefer the smaller synopsis), at
// the first candidate achieving the minimum.
func (d *treeDP) walkLeaf(j int, v float64, b int, keep *[]coefChoice) {
	if b < 1 || len(d.cands[j]) == 0 {
		return
	}
	li, ri, _ := haar.Children(j, d.n)
	drop := d.combine(d.pe.Err(li, v), d.pe.Err(ri, v))
	best := drop
	for _, w := range d.cands[j] {
		if r := d.combine(d.pe.Err(li, v+w), d.pe.Err(ri, v-w)); r < best {
			best = r
		}
	}
	if drop <= best {
		return
	}
	for _, w := range d.cands[j] {
		if d.combine(d.pe.Err(li, v+w), d.pe.Err(ri, v-w)) <= best {
			*keep = append(*keep, coefChoice{j, w})
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Dirty-path repair: incremental maintenance of the kept level tables.
//
// A state block's entries depend on (a) the point errors of the items in
// its subtree, (b) the candidate values of the node itself and of the
// finest-level nodes it evaluates inline, and (c) its states' incoming
// values — sums of *ancestor* candidate values. So a mutation of item i
// whose effect on the candidate sets is confined to i's two finest path
// nodes (in particular: a correction that leaves every expected frequency
// — and hence every expected coefficient — unchanged, the mean-preserving
// case) invalidates exactly the blocks of the O(log n) nodes on i's
// root-to-leaf path: every other block's inputs are value-identical, and
// the dirty blocks' incoming values come from clean ancestor candidates,
// so they stand. repair re-runs those blocks through the same solveStates
// code the forward sweep uses, bottom-up, so the patched tables are
// bit-identical to a from-scratch sweep over the mutated data. Mutations
// that change candidates higher in the tree shift the incoming values of
// entire subtrees and need a full forward resweep (wavelet.Live decides
// which path applies; see canRepair).

// pathLocal returns the local (within-level) index of the level-l
// ancestor node of leaf item it.
func (d *treeDP) pathLocal(l, it int) int { return it >> (d.levels - l) }

// canRepair reports whether the blocks invalidated by mutating
// dirtyItems, given the set of coefficients whose candidate lists changed
// value (same lengths — a length change reshapes the layout and always
// forces a rebuild), are exactly the dirty items' path blocks. That holds
// when every changed coefficient lives at the two finest levels of a
// dirty item's path: a finest-level (leaf) node's candidates are only
// read inline by its parent's block and by the backtrack, and a
// last-internal-level node's candidates only shape its own block's
// decisions — neither reaches any other block's incoming values.
func (d *treeDP) canRepair(dirtyItems []int, changed []int) bool {
	if d.levels < 2 {
		return true // n == 2: no tables are materialized at all
	}
	L := d.levels
	onPath := func(l, j int) bool {
		for _, it := range dirtyItems {
			if (1<<l)+d.pathLocal(l, it) == j {
				return true
			}
		}
		return false
	}
	for _, j := range changed {
		if j == 0 {
			return false // c0 feeds every incoming value
		}
		switch l := bits.Len(uint(j)) - 1; {
		case l == L-1:
			if !onPath(L-2, j/2) {
				return false
			}
		case l == L-2:
			if !onPath(L-2, j) {
				return false
			}
		default:
			return false // higher-level candidates shift whole subtrees
		}
	}
	return true
}

// repair recomputes the state blocks of the dirty items' path nodes,
// bottom-up: the last internal level's blocks first, then each ancestor
// level's blocks from the freshly patched level below. The retained
// incoming values (d.vals) are re-read as they are: canRepair refused any
// change above the two finest levels, and a kept level's values depend
// only on the candidates of strict ancestors above them. The caller must
// have established canRepair and already swapped the mutated pe/cands
// into d.
func (d *treeDP) repair(dirtyItems []int) {
	if d.levels < 2 {
		return // n == 2: extraction reads pe/cands directly
	}
	locals := uniqueLocals(dirtyItems, func(it int) int { return d.pathLocal(d.levels-2, it) })
	for l := d.levels - 2; l >= 0; l-- {
		for _, i := range locals {
			d.solveStates(l, d.offs[l][i], d.offs[l][i+1])
		}
		locals = uniqueLocals(locals, func(child int) int { return child >> 1 })
	}
}

// uniqueLocals maps xs through f and returns the sorted distinct results.
func uniqueLocals(xs []int, f func(int) int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	sort.Ints(out)
	w := 0
	for _, v := range out {
		if w == 0 || out[w-1] != v {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

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
				delta += d.gstep[l][d.pathLocal(l, i)] / 2
			}
		}
		if delta == 0 {
			continue
		}
		// The item's reachable reconstruction values: its L-2 ancestor's
		// bounds extended by the two finest decisions and the drift.
		i2 := d.pathLocal(L-2, i)
		ext := math.Abs(d.cands[(1<<(L-2))+i2][0]) +
			math.Abs(d.cands[(1<<(L-1))+i/2][0]) + delta
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
