package hist

import (
	"fmt"
	"math"

	"probsyn/internal/engine"
)

// DPStats counts the work one DP performed, cumulatively across the
// initial build and every resume. The split reduction of Eq. (2) is
// monotonicity-pruned: a candidate is either scanned (its value was
// computed) or pruned (skipped because it provably cannot beat the
// incumbent under the DP's strict-< tie-break), so per reduction
// Scanned + Pruned equals the candidate count and the pruned share is
// the output-sensitivity win. CostEvals counts bucket-cost evaluations —
// oracle Cost calls plus sweep-fill entries. Every sweep oracle pays Θ(n²)
// of them, one per bucket, as an unpruned DP would; a random-access
// oracle's bounded lazy fill stops each end at the furthest surviving
// candidate, so its CostEvals never exceeds that count (beyond the
// per-level seed re-pricings, which a sweep reads off the filled column
// instead) and drops when the certified cuts bite.
//
// The tables a DP produces are bit-identical at every worker count and
// whether or not pruning engages; the stats are not — chunk-local
// incumbents prune differently than a serial scan — so compare tables,
// not stats, for determinism.
type DPStats struct {
	CandidatesScanned int64
	CandidatesPruned  int64
	CostEvals         int64
}

// Add accumulates o into s.
func (s *DPStats) Add(o DPStats) {
	s.CandidatesScanned += o.CandidatesScanned
	s.CandidatesPruned += o.CandidatesPruned
	s.CostEvals += o.CostEvals
}

// OptimalPool computes the error-optimal B-bucket histogram for the
// oracle's metric by the dynamic program of Eq. (2):
//
//	OPT[j,b] = min_{i<j} h(OPT[i,b-1], BERR(i+1, j))
//
// with h = + for cumulative metrics and h = max for maximum-error metrics
// (the principle of optimality holds in both cases over probabilistic data,
// §3). Runtime is O(B n^2) bucket-cost evaluations on top of the oracle's
// precomputation; memory is O(B n) for backtracking. The DP is scheduled
// on pool (nil means serial); see RunDPPool for the parallel contract.
//
// If B >= n the histogram degenerates to one bucket per item.
func OptimalPool(o Oracle, B int, pool *engine.Pool) (*Histogram, error) {
	t, err := RunDPPool(o, B, pool)
	if err != nil {
		return nil, err
	}
	return t.Histogram(B)
}

// DPTable holds a completed histogram dynamic program for every budget up
// to Bmax, so a whole budget sweep (as in the paper's Figure 2) costs one
// DP run instead of one per budget.
type DPTable struct {
	oracle Oracle
	n      int
	bmax   int
	opt    [][]float64
	choice [][]int32
	// mono[b] certifies the monotone prefix of row b as written: opt[b] is
	// non-decreasing over [b, mono[b]) with opt[b][b] >= 0. The pruned
	// split reduction binary-searches rows only inside their certificate —
	// the mathematical lemma (a longer prefix never costs less) can wobble
	// by ULPs in floats, and an unchecked binary search could then skip
	// the true argmin and break bit-identity with the dense scan.
	mono  []int
	stats DPStats
}

// Stats returns the cumulative DP work counters (see DPStats).
func (t *DPTable) Stats() DPStats { return t.stats }

// setCell writes one DP cell and extends the row's monotone certificate
// when the new value keeps it valid. Row b's first meaningful cell is at
// end b (a (b+1)-bucket histogram needs b+1 items), which anchors the
// certificate with the non-negativity check the pruning rules need.
func (t *DPTable) setCell(b, e int, v float64, arg int32) {
	t.opt[b][e] = v
	t.choice[b][e] = arg
	switch {
	case e == b:
		if v >= 0 {
			t.mono[b] = e + 1
		}
	case t.mono[b] == e:
		if v >= t.opt[b][e-1] {
			t.mono[b] = e + 1
		}
	}
}

// RunDPPool executes the dynamic program of Eq. (2) up to budget Bmax with
// the per-end cost sweeps and the min-reduction over split points
// dispatched through the engine pool (nil means serial).
//
// The parallel schedule is deterministic: every floating-point operation is
// performed exactly as in the serial order, and chunk results are combined
// left to right with the same strict-< tie-breaking, so the resulting
// DPTable (costs and back-pointers) is bit-identical to a single-worker
// run. Oracle.Cost must be safe for concurrent calls (all oracles in this
// package are: Cost reads only precomputed arrays); SweepOracle sweeps are
// sequential in the bucket start and stay on the calling goroutine.
func RunDPPool(o Oracle, Bmax int, pool *engine.Pool) (*DPTable, error) {
	n := o.N()
	if n <= 0 {
		return nil, fmt.Errorf("hist: empty domain")
	}
	if Bmax <= 0 {
		return nil, fmt.Errorf("hist: bucket budget %d, want >= 1", Bmax)
	}
	if Bmax > n {
		Bmax = n
	}
	t := &DPTable{oracle: o, n: n, bmax: Bmax}

	// opt[b][j]: optimal error of a (b+1)-bucket histogram over prefix
	// [0..j]; choice[b][j]: last bucket is [choice+1 .. j].
	t.opt = make([][]float64, Bmax)
	t.choice = make([][]int32, Bmax)
	for b := range t.opt {
		t.opt[b] = make([]float64, n)
		t.choice[b] = make([]int32, n)
	}
	t.runColumns(0, pool)
	return t, nil
}

// runColumns executes the DP for ends e in [from, t.n), reading (and for
// e >= from, writing) the table's opt/choice rows. Column e depends only
// on bucket costs within [0, e] and on opt values at ends < e, so a
// resumed run over a suffix of ends produces exactly the entries a full
// run over the same oracle would — the incremental-maintenance path
// (DPTable.resume) relies on this, and the live property tests verify it
// byte-for-byte through the codec.
//
// The split reduction is monotonicity-pruned (see DESIGN.md "Pruned DP"):
// prev[i] is non-decreasing in i and the closing bucket's cost is
// non-increasing in i, so a certified upper bound on a level's minimum —
// the previous column's argmin re-priced at this end — cuts the candidate
// range by binary search on both sides, and a running incumbent stops the
// scan at the first prev[i] that can no longer beat it. Every skip is
// provably >= the incumbent (or strictly > the bound) under the DP's
// strict-< tie-break, so the tables are bit-identical to the dense
// reference (the unpruned scan the package's tests keep) at every worker
// count.
// Sweep oracles fill the whole column, which is what their sweep is cheap
// at. Random-access oracles instead price buckets lazily: the prev-side
// cuts are computed for every level before any cost evaluation, and only
// the prefix up to the furthest surviving candidate is materialized —
// never an unconditional costs[0..e] fill.
func (t *DPTable) runColumns(from int, pool *engine.Pool) {
	if pool == nil {
		pool = engine.Serial()
	}
	o, n, Bmax := t.oracle, t.n, t.bmax
	isSum := o.Combine() == Sum
	sweeper, hasSweep := o.(SweepOracle)

	// Monotone certificates: columns >= from are rewritten, so no
	// certificate may extend past from (entries left of from survive and
	// keep theirs).
	if cap(t.mono) >= Bmax {
		t.mono = t.mono[:Bmax]
	} else {
		m := make([]int, Bmax)
		copy(m, t.mono)
		t.mono = m
	}
	for b := range t.mono {
		if t.mono[b] > from {
			t.mono[b] = from
		}
	}

	costs := make([]float64, n)
	reps := make([]float64, n)
	// cmin[s] = min(costs[1..s]) is the exact prefix-min envelope of the
	// current end's filled costs: non-increasing by construction
	// regardless of any float wobble in costs itself, so binary-searching
	// it to skip the dominated low-i prefix is always sound.
	cmin := make([]float64, n)
	// useed[b] is this end's certified upper bound on level b's minimum.
	useed := make([]float64, Bmax)

	// partials[(b-1)*chunks + w] is chunk w's best candidate for level b at
	// the current end; statw[w] is chunk w's work counters. Reused across
	// ends.
	partials := make([]engine.MinPartial, (Bmax-1)*pool.Workers())
	statw := make([]DPStats, pool.Workers())

	// lastScan is the number of candidates that survived pruning at the
	// previous end — the work estimate the fan-out decision is derived
	// from, so a heavily pruned scan does not fan out into pure
	// scheduling overhead.
	lastScan := 0

	for e := from; e < n; e++ {
		if hasSweep {
			sweeper.CostsForEnd(e, costs, reps)
			t.stats.CostEvals += int64(e + 1)
			cm := math.Inf(1)
			for s := 1; s <= e; s++ {
				if costs[s] < cm {
					cm = costs[s]
				}
				cmin[s] = cm
			}
			t.setCell(0, e, costs[0], -1)
		} else {
			// Lazy path: no fill — level 0 needs exactly one bucket cost.
			c0, _ := o.Cost(0, e)
			t.stats.CostEvals++
			t.setCell(0, e, c0, -1)
		}
		top := Bmax
		if e+1 < top {
			top = e + 1
		}
		if top <= 1 {
			continue
		}

		// Seed each level's upper bound with the previous column's argmin
		// re-priced at this end: any valid split index upper-bounds the
		// minimum, stale post-resume back-pointers included, and the
		// previous column's winner is usually within a hair of optimal.
		// Pruning against a seed is strict (> useed), so exact ties with
		// the bound — including the seed candidate itself — survive and
		// the argmin is untouched.
		for b := 1; b < top; b++ {
			u := math.Inf(1)
			if i0 := int(t.choice[b][e-1]); i0 >= b-1 && i0 < e {
				var c float64
				if hasSweep {
					c = costs[i0+1]
				} else {
					c, _ = o.Cost(i0+1, e)
					t.stats.CostEvals++
				}
				if isSum {
					u = t.opt[b-1][i0] + c
				} else if u = t.opt[b-1][i0]; c > u {
					u = c
				}
			}
			useed[b] = u
		}

		if !hasSweep {
			// Bounded lazy fill: the certified prev-side cut bounds every
			// level's scan reach before a single bucket is priced — level b
			// reads costs only up to CutGT(prev, ., useed[b]) — so only the
			// prefix costs[1..maxHi] is materialized (with its exact
			// envelope). maxHi is the furthest surviving candidate across
			// levels: when the cuts bite, whole-column pricing drops from
			// Θ(e) to that count; it never exceeds the dense fill.
			maxHi := 0
			for b := 1; b < top; b++ {
				hi := e
				if t.mono[b-1] >= e && !math.IsInf(useed[b], 1) {
					hi = engine.CutGT(t.opt[b-1], b-1, e, useed[b])
				}
				if hi > maxHi {
					maxHi = hi
				}
			}
			pool.MapChunks(1, maxHi+1, maxHi, func(_, lo, hi int) {
				for s := lo; s < hi; s++ {
					costs[s], reps[s] = o.Cost(s, e)
				}
			})
			t.stats.CostEvals += int64(maxHi)
			cm := math.Inf(1)
			for s := 1; s <= maxHi; s++ {
				if costs[s] < cm {
					cm = costs[s]
				}
				cmin[s] = cm
			}
		}

		scannedBefore := t.stats.CandidatesScanned
		if chunks := pool.Chunks(lastScan); chunks > 1 {
			for w := range statw[:chunks] {
				statw[w] = DPStats{}
			}
			pool.MapChunks(0, e, lastScan, func(w, lo, hi int) {
				st := &statw[w]
				for b := 1; b < top; b++ {
					from := lo
					if from < b-1 {
						from = b - 1
					}
					partials[(b-1)*chunks+w] = prunedScanDense(t.opt[b-1], costs, cmin, from, hi, isSum, useed[b], t.mono[b-1] >= e, st)
				}
			})
			for w := range statw[:chunks] {
				t.stats.Add(statw[w])
			}
			for b := 1; b < top; b++ {
				best := engine.CombineMin(partials[(b-1)*chunks : b*chunks])
				if best.Arg < 0 {
					best = engine.MinPartial{Value: math.Inf(1), Arg: int32(b - 1)}
				}
				t.setCell(b, e, best.Value, best.Arg)
			}
		} else {
			for b := 1; b < top; b++ {
				best := prunedScanDense(t.opt[b-1], costs, cmin, b-1, e, isSum, useed[b], t.mono[b-1] >= e, &t.stats)
				if best.Arg < 0 {
					best = engine.MinPartial{Value: math.Inf(1), Arg: int32(b - 1)}
				}
				t.setCell(b, e, best.Value, best.Arg)
			}
		}
		lastScan = int(t.stats.CandidatesScanned - scannedBefore)
	}
}

// prunedScanDense reduces split candidates i in [lo, hi) against a
// materialized costs row, bit-identically to reduceSplits over the same
// range. U is a certified upper bound on the level's minimum over the
// full range (+Inf when unknown): candidates with min(costs[1..i+1]) > U
// — a prefix, located by binary search on the exact envelope cmin — and,
// when the prev row's monotone certificate covers the range (monoOK),
// candidates with prev[i] > U — a suffix — cannot be the argmin under
// strict-< tie-breaking and are skipped wholesale. Inside the window a
// certified-monotone prev additionally stops the scan at the first
// prev[i] >= the running incumbent.
func prunedScanDense(prev, costs, cmin []float64, lo, hi int, isSum bool, U float64, monoOK bool, st *DPStats) engine.MinPartial {
	if lo >= hi {
		return engine.EmptyMin()
	}
	from, to := lo, hi
	if !math.IsInf(U, 1) {
		if monoOK {
			to = engine.CutGT(prev, lo, hi, U)
		}
		// First s in [lo+1, to] with cmin[s] <= U; candidate i = s-1. The
		// search is clamped to the prev-side cut: candidates past it are
		// pruned anyway, and under the bounded lazy fill the envelope is
		// only materialized that far.
		from = engine.CutLE(cmin, lo+1, to+1, U) - 1
	}
	var best engine.MinPartial
	i := from
	if monoOK {
		best = engine.EmptyMin()
		if isSum {
			for ; i < to; i++ {
				p := prev[i]
				if p >= best.Value {
					break
				}
				if v := p + costs[i+1]; v < best.Value {
					best = engine.MinPartial{Value: v, Arg: int32(i)}
				}
			}
		} else {
			for ; i < to; i++ {
				v := prev[i]
				if v >= best.Value {
					break
				}
				if c := costs[i+1]; c > v {
					v = c
				}
				if v < best.Value {
					best = engine.MinPartial{Value: v, Arg: int32(i)}
				}
			}
		}
	} else {
		best = reduceSplits(prev, costs, from, to, isSum)
		i = to
	}
	st.CandidatesScanned += int64(i - from)
	st.CandidatesPruned += int64((from - lo) + (hi - to) + (to - i))
	return best
}

// prunedScanLazy is a fully lazy variant of prunedScanDense: no costs
// row exists at all, so surviving candidates are priced by o.Cost on
// demand and the low-i envelope cut is unavailable — the prev-side cut,
// the incumbent stop, and per-candidate prev[i] > U skips (sound without
// any monotonicity: the candidate value is >= prev[i] > U >= the
// minimum) do the pruning. Each evaluation is counted in CostEvals.
// OptimalError's level-major rolling DP uses it: with no per-end reuse
// across levels there is nothing to materialize. runColumns instead
// bounds a shared per-end fill with the same prev-side cuts and scans it
// densely, so costs are priced once per end, not once per level.
func prunedScanLazy(o Oracle, prev []float64, lo, hi, e int, isSum bool, U float64, monoOK bool, st *DPStats) engine.MinPartial {
	if lo >= hi {
		return engine.EmptyMin()
	}
	to := hi
	if monoOK && !math.IsInf(U, 1) {
		to = engine.CutGT(prev, lo, hi, U)
	}
	best := engine.EmptyMin()
	var evals, skipped int64
	i := lo
	for ; i < to; i++ {
		p := prev[i]
		if monoOK && p >= best.Value {
			break
		}
		if p > U {
			skipped++
			continue
		}
		c, _ := o.Cost(i+1, e)
		evals++
		v := p
		if isSum {
			v = p + c
		} else if c > v {
			v = c
		}
		if v < best.Value {
			best = engine.MinPartial{Value: v, Arg: int32(i)}
		}
	}
	st.CostEvals += evals
	st.CandidatesScanned += evals
	st.CandidatesPruned += skipped + int64(to-i) + int64(hi-to)
	return best
}

// resume re-anchors the table on a new oracle over a same-or-larger
// domain and recomputes only the columns a mutation could have changed:
// everything from `from` rightward. breq is the budget the table was
// originally requested at — the effective Bmax re-clamps against the new
// domain, and if that changes the budget-level count, every column is
// recomputed (old levels would be missing or stale).
//
// Correctness requires the caller to guarantee that bucket costs wholly
// left of `from` are unchanged under the new oracle — true when the
// oracle is rebuilt from the same data with only items >= from mutated
// (prefix structures agree bit-for-bit left of the first change; oracles
// whose global value grid changed still price untouched buckets
// identically, because added grid points carry zero mass there).
func (t *DPTable) resume(o Oracle, from, breq int, pool *engine.Pool) error {
	n := o.N()
	if n < t.n {
		return fmt.Errorf("hist: resume cannot shrink the domain (%d -> %d)", t.n, n)
	}
	if from < 0 || from > t.n {
		return fmt.Errorf("hist: resume start %d outside [0, %d]", from, t.n)
	}
	if breq <= 0 {
		return fmt.Errorf("hist: bucket budget %d, want >= 1", breq)
	}
	bmax := breq
	if bmax > n {
		bmax = n
	}
	if bmax != t.bmax {
		from = 0 // budget levels appear (or vanish): no column survives
	}
	if bmax < t.bmax {
		t.opt = t.opt[:bmax]
		t.choice = t.choice[:bmax]
	}
	for b := t.bmax; b < bmax; b++ {
		t.opt = append(t.opt, make([]float64, n))
		t.choice = append(t.choice, make([]int32, n))
	}
	if n > t.n {
		for b := 0; b < len(t.opt); b++ {
			if len(t.opt[b]) < n {
				opt := make([]float64, n)
				copy(opt, t.opt[b])
				choice := make([]int32, n)
				copy(choice, t.choice[b])
				t.opt[b], t.choice[b] = opt, choice
			}
		}
	}
	t.oracle, t.n, t.bmax = o, n, bmax
	t.runColumns(from, pool)
	return nil
}

// reduceSplits scans split points i in [from, to), pricing prev[i] extended
// by a final bucket [i+1, e] whose cost is costs[i+1], and returns the
// minimum. Strict < keeps the smallest minimizing i, matching the serial
// DP's tie-breaking exactly.
func reduceSplits(prev, costs []float64, from, to int, isSum bool) engine.MinPartial {
	best := engine.EmptyMin()
	if isSum {
		for i := from; i < to; i++ {
			if v := prev[i] + costs[i+1]; v < best.Value {
				best = engine.MinPartial{Value: v, Arg: int32(i)}
			}
		}
	} else {
		for i := from; i < to; i++ {
			v := prev[i]
			if c := costs[i+1]; c > v {
				v = c
			}
			if v < best.Value {
				best = engine.MinPartial{Value: v, Arg: int32(i)}
			}
		}
	}
	return best
}

// Bmax returns the largest budget the table covers.
func (t *DPTable) Bmax() int { return t.bmax }

// Cost returns the optimal B-bucket error (B clamped to [1, Bmax]).
func (t *DPTable) Cost(B int) float64 {
	B = min(max(B, 1), t.bmax)
	return t.opt[B-1][t.n-1]
}

// Boundaries returns the optimal B-bucket start positions.
func (t *DPTable) Boundaries(B int) []int {
	if B > t.bmax {
		B = t.bmax
	}
	starts := make([]int, 0, B)
	b, j := B-1, t.n-1
	for b >= 0 {
		i := int(t.choice[b][j])
		starts = append(starts, i+1)
		j, b = i, b-1
	}
	for l, r := 0, len(starts)-1; l < r; l, r = l+1, r-1 {
		starts[l], starts[r] = starts[r], starts[l]
	}
	return starts
}

// Histogram materializes the optimal B-bucket histogram.
// A histogram may not benefit from all B buckets (zero-cost prefixes);
// it still contains exactly min(B, n) buckets as requested.
func (t *DPTable) Histogram(B int) (*Histogram, error) {
	return FromBoundaries(t.oracle, t.Boundaries(B))
}

// OptimalError returns only the optimal B-bucket error. For random-access
// oracles it runs a two-row rolling DP — no backtracking table, O(n)
// memory total — level-major over the budget, pricing buckets lazily
// through the same pruned scan as RunDPPool; every cell is the same
// min over the same candidates with the same float operations, so the
// result is math.Float64bits-identical to DPTable.Cost(B).
//
// It never prices through CostsForEnd where Cost will do, which makes it
// the independent recomputation of a sweep-built table. A sweep-only
// oracle (sweepOnly) fills costs per end, column-major by nature:
// re-sweeping per level would cost O(B·n²) fills, so for it the full table
// is built instead (O(B·n) memory, as OptimalPool). Used by tests, the
// benchmark's second-way cost check and error-normalization.
func OptimalError(o Oracle, B int) (float64, error) {
	n := o.N()
	if n <= 0 {
		return 0, fmt.Errorf("hist: empty domain")
	}
	if B <= 0 {
		return 0, fmt.Errorf("hist: bucket budget %d, want >= 1", B)
	}
	if sweepOnly(o) {
		t, err := RunDPPool(o, B, nil)
		if err != nil {
			return 0, err
		}
		return t.Cost(B), nil
	}
	if B > n {
		B = n
	}
	isSum := o.Combine() == Sum
	var st DPStats
	prev := make([]float64, n)
	cur := make([]float64, n)
	for e := 0; e < n; e++ {
		prev[e], _ = o.Cost(0, e)
	}
	for b := 1; b < B; b++ {
		// Certify prev over the indices this level reads, [b-1, n):
		// non-decreasing with a non-negative anchor, exactly the
		// per-write check runColumns maintains.
		monoOK := prev[b-1] >= 0
		for i := b; monoOK && i < n; i++ {
			monoOK = prev[i] >= prev[i-1]
		}
		lastArg := -1
		for e := b; e < n; e++ {
			u := math.Inf(1)
			if lastArg >= b-1 && lastArg < e {
				c, _ := o.Cost(lastArg+1, e)
				if isSum {
					u = prev[lastArg] + c
				} else if u = prev[lastArg]; c > u {
					u = c
				}
			}
			best := prunedScanLazy(o, prev, b-1, e, e, isSum, u, monoOK, &st)
			if best.Arg < 0 {
				best = engine.MinPartial{Value: math.Inf(1), Arg: int32(b - 1)}
			}
			cur[e] = best.Value
			lastArg = int(best.Arg)
		}
		prev, cur = cur, prev
	}
	return prev[n-1], nil
}
