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
// oracle Cost calls plus sweep-fill entries. The fill is dense: every
// bucket ending at a computed end is priced once, e+1 per end, so a full
// build pays exactly n(n+1)/2 whatever the oracle (a one-level table reads
// only the whole-prefix bucket and prices a random-access oracle once per
// end).
//
// Every cell is reduced by one serial scan over its full candidate range,
// whichever worker runs it, so the stats — like the tables — are identical
// at every worker count.
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

// RunDPPool executes the dynamic program of Eq. (2) up to budget Bmax as
// one tile schedule on the engine pool (nil means serial); see runColumns.
//
// The schedule is deterministic by construction: every cell is produced by
// the same serial scan over its full candidate range whichever worker runs
// its tile, so the resulting DPTable (costs and back-pointers) and its
// DPStats are bit-identical at every worker count. Oracle.Cost must be safe
// for concurrent calls (all oracles in this package are: Cost reads only
// precomputed arrays) because several DPs may share one oracle; within one
// DP every bucket is priced by the fill row, one tile at a time in end
// order, so a SweepOracle's sweeps never overlap.
func RunDPPool(o Oracle, Bmax int, pool *engine.Pool) (*DPTable, error) {
	return runDP(o, Bmax, pool, defaultTiles)
}

// tileShape is the geometry of the DP's tile grid: a tile is levels budget
// levels by ends bucket ends, and ring end-blocks of cost columns are kept
// at once. Production code runs defaultTiles; the parameter exists so that
// tests can put tile edges where they want them.
type tileShape struct{ levels, ends, ring int }

// An 8 x 8 tile is tens of microseconds of scans against one lock round
// trip of bookkeeping, and leaves a 64-level, 512-end build some 600 tiles
// to overlap; 4 x 8, 16 x 8 and 8 x 16 tiles measured the same within
// noise on two workers. The ring stays at 2 — enough for the fill row to
// price a block while the bands drain the one before: a slot holds
// ends x 2n floats, and a 32-end x 4-slot ring bought no speed for +89%
// allocation on the benchmark's hist-scan workload.
var defaultTiles = tileShape{levels: 8, ends: 8, ring: 2}

func runDP(o Oracle, Bmax int, pool *engine.Pool, ts tileShape) (*DPTable, error) {
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
	t.runColumns(0, pool, ts)
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
// The (level, end) table is cut into tiles of ts.levels levels by ts.ends
// ends and run on a dependency grid (engine.Pool.RunGrid). Grid row 0 is
// the fill row: for each end of its block it prices every bucket ending
// there — CostsForEnd for a SweepOracle, a Cost loop otherwise — into one
// slot of a ring of ts.ring cost-column blocks, takes the column's block
// minima (blockMinima) the scans bound with, and writes level 0. Grid row
// r >= 1 is the band of levels [1+(r-1)*ts.levels, 1+r*ts.levels): cell
// (b, e) reads row b-1 at ends < e and the cost column of e, so tile
// (r, q) may run once (r-1, q) and (r, q-1) have; a fill tile reuses the
// slot of block q-ring, so it also waits for the last band to finish that
// block. The fill is dense —
// pricing only up to the furthest surviving candidate was tried and never
// paid (35.1M evaluations "bounded" against 33.6M dense at n=8192/B=200:
// the per-level seed re-pricings cost more than the cuts saved).
//
// The split reduction is monotonicity-pruned (see DESIGN.md "Pruned DP"):
// prev[i] is non-decreasing in i and the closing bucket's cost is
// non-increasing in i, so a certified upper bound on a level's minimum —
// the previous column's argmin priced at this end — cuts the candidate
// range by binary search on both sides, a lower bound from the column's
// block minima skips whole blocks of candidates inside it, and a running
// incumbent stops the scan at the first prev[i] that can no longer beat
// it. Every skip is provably >= the incumbent (or strictly > the bound)
// under the DP's strict-< tie-break, and every cell is one whole serial
// scan, so the tables are bit-identical to the dense reference (the
// unpruned scan the package's tests keep) with nothing to combine.
//
// A band's first level reads the monotone certificate of a row the band
// above is still extending. It reads it from the snapshot that band took
// when it finished the same block: a certificate that stops never resumes,
// so "certified up to e" has the same truth value in the snapshot as at
// the moment a serial run would have asked.
func (t *DPTable) runColumns(from int, pool *engine.Pool, ts tileShape) {
	o, n, Bmax := t.oracle, t.n, t.bmax
	isSum := o.Combine() == Sum
	sweeper, _ := o.(SweepOracle)

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
	if from >= n {
		return
	}

	rows := 1 + (Bmax-1+ts.levels-1)/ts.levels
	cols := (n - from + ts.ends - 1) / ts.ends
	width := min(ts.ends, n-from)
	ring := min(ts.ring, cols)
	// One ring slot holds, per end of a block, the costs column and its
	// block minima (blockMinima): nb floats of bmin, nb of their running
	// minimum bcm.
	nb := (n + scanBlock - 1) / scanBlock
	slot := n + 2*nb
	ringBuf := make([]float64, ring*width*slot)
	column := func(q, e int) (costs, bmin, bcm []float64) {
		at := ((q%ring)*width + e - from - q*ts.ends) * slot
		return ringBuf[at : at+n], ringBuf[at+n : at+n+nb], ringBuf[at+n+nb : at+slot]
	}
	var reps []float64
	if sweeper != nil {
		reps = make([]float64, n)
	}
	// snap[r*cols+q] is row r's last-level certificate as tile (r, q) left
	// it; stats[r] is row r's work, summed at the end so the total does not
	// depend on which worker ran what.
	snap := make([]int, rows*cols)
	stats := make([]DPStats, rows)

	pool.RunGrid(rows, cols, ring, func(r, q int) {
		lo := from + q*ts.ends
		hi := min(lo+ts.ends, n)
		var st DPStats
		last := 0
		if r == 0 {
			for e := lo; e < hi; e++ {
				costs, bmin, bcm := column(q, e)
				switch {
				case sweeper != nil:
					sweeper.CostsForEnd(e, costs, reps)
					st.CostEvals += int64(e + 1)
				case Bmax == 1:
					costs[0], _ = o.Cost(0, e)
					st.CostEvals++
				default:
					for s := 0; s <= e; s++ {
						costs[s], _ = o.Cost(s, e)
					}
					st.CostEvals += int64(e + 1)
				}
				blockMinima(costs, e, bmin, bcm)
				t.setCell(0, e, costs[0], -1)
			}
		} else {
			first := 1 + (r-1)*ts.levels
			last = min(first+ts.levels, Bmax) - 1
			for e := max(lo, first); e < hi; e++ {
				costs, bmin, bcm := column(q, e)
				above := snap[(r-1)*cols+q]
				for b := first; b <= last && b <= e; b++ {
					// Seed the level's upper bound with the previous
					// column's argmin priced at this end: any valid split
					// index upper-bounds the minimum, stale post-resume
					// back-pointers included, and the previous column's
					// winner is usually within a hair of optimal. Pruning
					// against a seed is strict (> u), so exact ties with the
					// bound — including the seed candidate itself — survive
					// and the argmin is unchanged.
					prev := t.opt[b-1]
					u := math.Inf(1)
					if i0 := int(t.choice[b][e-1]); i0 >= b-1 && i0 < e {
						if c := costs[i0+1]; isSum {
							u = prev[i0] + c
						} else if u = prev[i0]; c > u {
							u = c
						}
					}
					best := prunedScanDense(prev, costs, bmin, bcm, b-1, e, isSum, u, above >= e, &st)
					if best.arg < 0 {
						best = minPartial{value: math.Inf(1), arg: int32(b - 1)}
					}
					t.setCell(b, e, best.value, best.arg)
					above = t.mono[b]
				}
			}
		}
		snap[r*cols+q] = t.mono[last]
		stats[r].Add(st)
	})
	for r := range stats {
		t.stats.Add(stats[r])
	}
}

// minPartial is an argmin candidate: the minimal value over a scanned
// range and the index achieving it. arg < 0 marks an empty range.
type minPartial struct {
	value float64
	arg   int32
}

// emptyMin returns the identity candidate: +Inf value, no index.
func emptyMin() minPartial { return minPartial{value: math.Inf(1), arg: -1} }

// scanBlock is the width of the blocks of a cost column whose minima bound
// the split scan (blockMinima, prunedScanDense). Of 8, 16 and 32, 16 timed
// fastest on the benchmark's six histogram builds.
const scanBlock = 16

// blockMinima takes end e's cost column apart for the scans: block k holds
// costs[k·scanBlock, (k+1)·scanBlock) — the closing buckets of split
// candidates i with i+1 in that range — bmin[k] is the exact minimum of
// costs[1..e] over block k and bcm[k] = min(bmin[0..k]), non-increasing by
// construction whatever float wobble costs itself has.
func blockMinima(costs []float64, e int, bmin, bcm []float64) {
	cm := math.Inf(1)
	for k, s := 0, 1; s <= e; k++ {
		m := math.Inf(1)
		for end := min((k+1)*scanBlock, e+1); s < end; s++ {
			if costs[s] < m {
				m = costs[s]
			}
		}
		if m < cm {
			cm = m
		}
		bmin[k], bcm[k] = m, cm
	}
}

// prunedScanDense reduces split candidates i in [lo, hi) against a
// materialized costs row and its block minima (blockMinima),
// bit-identically to reduceSplits over the same range. U is a certified
// upper bound on the level's minimum over the full range (+Inf when
// unknown). Candidates in the blocks before the first whose running
// minimum bcm is <= U close with a bucket dearer than U — a prefix, found
// by binary search on bcm — and, when the prev row's monotone certificate
// covers the range (monoOK), candidates with prev[i] > U — a suffix —
// cannot be the argmin under strict-< tie-breaking either, and both are
// skipped wholesale. Inside the window a certified-monotone prev also
// bounds a whole block from below: every candidate j >= i of block k
// prices at least h(prev[i], bmin[k]), as prev[j] >= prev[i], costs[j+1]
// >= bmin[k] and + and max round monotonically, so the block is skipped
// when that bound is > U (it loses to the seed) or >= the incumbent (it
// cannot displace an equal value at a smaller index). The scan stops at
// the first prev[i] >= the incumbent.
func prunedScanDense(prev, costs, bmin, bcm []float64, lo, hi int, isSum bool, U float64, monoOK bool, st *DPStats) minPartial {
	if lo >= hi {
		return emptyMin()
	}
	from, to := lo, hi
	if !math.IsInf(U, 1) {
		if monoOK {
			to = engine.CutGT(prev, lo, hi, U)
		}
		k := engine.CutLE(bcm, (lo+1)/scanBlock, to/scanBlock+1, U)
		from = min(max(lo, k*scanBlock-1), to)
	}
	if !monoOK {
		st.CandidatesScanned += int64(to - from)
		st.CandidatesPruned += int64((hi - lo) - (to - from))
		return reduceSplits(prev, costs, from, to, isSum)
	}
	best := emptyMin()
	scanned := 0
scan:
	for i := from; i < to; {
		k := (i + 1) / scanBlock
		end := min((k+1)*scanBlock-1, to)
		p := prev[i]
		if p >= best.value {
			break
		}
		lb := bmin[k]
		if isSum {
			lb += p
		} else if p > lb {
			lb = p
		}
		if lb > U || lb >= best.value {
			i = end
			continue
		}
		start := i
		if isSum {
			for ; i < end; i++ {
				p := prev[i]
				if p >= best.value {
					scanned += i - start
					break scan
				}
				if v := p + costs[i+1]; v < best.value {
					best = minPartial{value: v, arg: int32(i)}
				}
			}
		} else {
			for ; i < end; i++ {
				v := prev[i]
				if v >= best.value {
					scanned += i - start
					break scan
				}
				if c := costs[i+1]; c > v {
					v = c
				}
				if v < best.value {
					best = minPartial{value: v, arg: int32(i)}
				}
			}
		}
		scanned += i - start
	}
	st.CandidatesScanned += int64(scanned)
	st.CandidatesPruned += int64(hi - lo - scanned)
	return best
}

// prunedScanLazy is a fully lazy variant of prunedScanDense: no costs
// row exists at all, so surviving candidates are priced by o.Cost on
// demand and the low-i envelope cut is unavailable — the prev-side cut,
// the incumbent stop, and per-candidate prev[i] > U skips (sound without
// any monotonicity: the candidate value is >= prev[i] > U >= the
// minimum) do the pruning. Each evaluation is counted in CostEvals.
// OptimalError's level-major rolling DP uses it: with no per-end reuse
// across levels there is nothing to materialize. runColumns instead fills
// each end's column once and scans it densely at every level, so costs are
// priced once per end, not once per level.
func prunedScanLazy(o Oracle, prev []float64, lo, hi, e int, isSum bool, U float64, monoOK bool, st *DPStats) minPartial {
	if lo >= hi {
		return emptyMin()
	}
	to := hi
	if monoOK && !math.IsInf(U, 1) {
		to = engine.CutGT(prev, lo, hi, U)
	}
	best := emptyMin()
	var evals, skipped int64
	i := lo
	for ; i < to; i++ {
		p := prev[i]
		if monoOK && p >= best.value {
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
		if v < best.value {
			best = minPartial{value: v, arg: int32(i)}
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
// whose global value grid changed still price those buckets
// identically, because added grid points carry zero mass there).
func (t *DPTable) resume(o Oracle, from, breq int, pool *engine.Pool, ts tileShape) error {
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
	t.runColumns(from, pool, ts)
	return nil
}

// reduceSplits scans split points i in [from, to), pricing prev[i] extended
// by a final bucket [i+1, e] whose cost is costs[i+1], and returns the
// minimum. Strict < keeps the smallest minimizing i, matching the serial
// DP's tie-breaking exactly.
func reduceSplits(prev, costs []float64, from, to int, isSum bool) minPartial {
	best := emptyMin()
	if isSum {
		for i := from; i < to; i++ {
			if v := prev[i] + costs[i+1]; v < best.value {
				best = minPartial{value: v, arg: int32(i)}
			}
		}
	} else {
		for i := from; i < to; i++ {
			v := prev[i]
			if c := costs[i+1]; c > v {
				v = c
			}
			if v < best.value {
				best = minPartial{value: v, arg: int32(i)}
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
			if best.arg < 0 {
				best = minPartial{value: math.Inf(1), arg: int32(b - 1)}
			}
			cur[e] = best.value
			lastArg = int(best.arg)
		}
		prev, cur = cur, prev
	}
	return prev[n-1], nil
}
