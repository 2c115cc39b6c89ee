package hist

import (
	"fmt"
	"math"
	"slices"

	"probsyn/internal/engine"
)

// DPStats counts the work one DP performed, cumulatively across the
// initial build and every resume. The split reduction of Eq. (2) is
// monotonicity-pruned: a candidate is either scanned (its value was
// computed; the seed each scan starts from counts as scanned) or pruned
// (skipped because it provably cannot displace the incumbent under the
// DP's smallest-index tie-break), so per reduction Scanned + Pruned
// equals the candidate count and the pruned share is the
// output-sensitivity win. CostEvals counts bucket-cost evaluations —
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
	breq   int // the budget RunDPPool was asked for; bmax is it clamped to n
	opt    [][]float64
	choice [][]int32
	// mono[b] certifies the monotone prefix of row b as written: opt[b] is
	// non-decreasing over [b, mono[b]) with opt[b][b] >= 0. The pruned
	// split reduction bounds candidates by their prev value only inside
	// the certificate — the mathematical lemma (a longer prefix never
	// costs less) can wobble by ULPs in floats, and an unchecked bound
	// could then skip the true argmin and break bit-identity with the
	// dense scan.
	mono  []int
	stats DPStats
	// runColumns' scratch, kept across resumes (a fresh table drops it):
	// the cost-column ring, the sweep's representatives, the bands'
	// certificate snapshots and their work counters.
	ring, reps []float64
	snap       []int
	bandStats  []DPStats
}

// grow returns buf resliced to length n, its first min(len(buf), n)
// elements kept, reallocating with append's amortised headroom when short
// of capacity: a structure that grows a few items at a time reallocates
// rarely.
func grow[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	return slices.Grow(buf, n-len(buf))[:n]
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
	t := &DPTable{oracle: o, n: n, bmax: min(Bmax, n), breq: Bmax}

	// opt[b][j]: optimal error of a (b+1)-bucket histogram over prefix
	// [0..j]; choice[b][j]: last bucket is [choice+1 .. j].
	t.opt = make([][]float64, t.bmax)
	t.choice = make([][]int32, t.bmax)
	for b := range t.opt {
		t.opt[b] = make([]float64, n)
		t.choice[b] = make([]int32, n)
	}
	t.runColumns(0, pool, ts)
	// Only a resume reuses the scratch; a table that is never resumed
	// holds no more than its opt/choice.
	t.ring, t.reps, t.snap, t.bandStats = nil, nil, nil, nil
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
// each cell's scan starts at the previous column's argmin, usually its own,
// and walks up and down from it, skipping whole blocks of candidates whose
// lower bound from the column's block minima cannot displace the incumbent
// and stopping where prev[i] (upward) or the running block minimum
// (downward) no longer can. Every skip is provably no better under the
// DP's smallest-index tie-break, and every cell is one whole serial scan,
// so the tables are bit-identical to the dense reference (the unpruned
// scan the package's tests keep) with nothing to combine.
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
	switch o.(type) {
	case *SSEValue, *Quadratic:
		if Bmax == 1 {
			sweeper = nil // only costs[0] is read: one O(1) Cost an end
		}
	}

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
	t.ring = grow(t.ring[:0], ring*width*slot)
	ringBuf := t.ring
	column := func(q, e int) (costs, bmin, bcm []float64) {
		at := ((q%ring)*width + e - from - q*ts.ends) * slot
		return ringBuf[at : at+n], ringBuf[at+n : at+n+nb], ringBuf[at+n+nb : at+slot]
	}
	var reps []float64
	if sweeper != nil {
		t.reps = grow(t.reps[:0], n)
		reps = t.reps
	}
	// snap[r*cols+q] is row r's last-level certificate as tile (r, q) left
	// it; stats[r] is row r's work, summed at the end so the total does not
	// depend on which worker ran what.
	t.snap = grow(t.snap[:0], rows*cols)
	snap := t.snap
	t.bandStats = grow(t.bandStats[:0], rows)
	stats := t.bandStats
	clear(stats)

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
					// Seed the scan with the previous column's argmin: any
					// valid split index is a candidate, stale post-resume
					// back-pointers included, and the previous column's
					// winner is usually this one's too.
					seed := int(t.choice[b][e-1])
					if seed < b-1 || seed >= e {
						seed = b - 1
					}
					best := scanFromSeed(t.opt[b-1], costs, bmin, bcm, b-1, e, seed, isSum, above >= e, &st)
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
// the split scan (blockMinima, scanFromSeed). Of 8, 16 and 32, 16 timed
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

// splitCost is a candidate's value h(prev[i], costs[i+1]) in reduceSplits'
// floats: the builtin max differs from it on (-0, +0).
func splitCost(p, c float64, isSum bool) float64 {
	if isSum {
		return p + c
	}
	if c > p {
		return c
	}
	return p
}

// scanFromSeed reduces split candidates i in [lo, hi) against a
// materialized costs row and its block minima (blockMinima), starting from
// the incumbent seed in [lo, hi), and returns reduceSplits' argmin over
// the range with an empty result read as {+Inf, lo}. Candidates above the
// seed must win strictly and those below win ties, so the smallest
// minimizing index wins as in the dense scan. The walks skip what provably
// cannot win: costs[j+1] >= bmin[k] for every candidate j of block k, and
// when prev is certified non-decreasing (monoOK) prev[j] >= prev[i] for j
// >= i, and + and max round monotonically, so every j >= i of block k
// prices at least h(prev[i], bmin[k]).
func scanFromSeed(prev, costs, bmin, bcm []float64, lo, hi, seed int, isSum, monoOK bool, st *DPStats) minPartial {
	best := minPartial{value: splitCost(prev[seed], costs[seed+1], isSum), arg: int32(seed)}
	scanned := 1
	if monoOK {
		var up, down int
		best, up = walkUp(prev, costs, bmin, seed+1, hi, isSum, best)
		best, down = walkDown(prev, costs, bmin, bcm, lo, seed, isSum, best)
		scanned += up + down
	} else {
		// Only the closing costs bound an uncertified row: the blocks
		// below the first whose running minimum is within the seed's value
		// cannot reach it, and the rest is one pass.
		j := (seed + 1) / scanBlock
		for j > (lo+1)/scanBlock && bcm[j-1] <= best.value {
			j--
		}
		from := max(j*scanBlock-1, lo)
		if r := reduceSplits(prev, costs, from, hi, isSum); r.arg >= 0 {
			best = r
		}
		scanned = hi - from
	}
	if math.IsInf(best.value, 1) {
		best.arg = int32(lo) // every candidate is +Inf: reduceSplits' empty result
	}
	st.CandidatesScanned += int64(scanned)
	st.CandidatesPruned += int64(hi - lo - scanned)
	return best
}

// walkUp is scanFromSeed's walk over candidates [from, hi) above the
// incumbent best on a certified row, each of which must beat it strictly.
// It stops at the first prev[i] >= the incumbent and skips a block whose
// bound from its first unpriced candidate reaches it, and returns the new
// incumbent and the number of candidates it priced.
func walkUp(prev, costs, bmin []float64, from, hi int, isSum bool, best minPartial) (minPartial, int) {
	scanned := 0
	for i := from; i < hi; {
		k := (i + 1) / scanBlock
		end := min((k+1)*scanBlock-1, hi)
		if prev[i] >= best.value {
			break
		}
		if splitCost(prev[i], bmin[k], isSum) >= best.value {
			i = end
			continue
		}
		start := i
		for ; i < end; i++ {
			p := prev[i]
			if p >= best.value {
				return best, scanned + i - start
			}
			if v := splitCost(p, costs[i+1], isSum); v < best.value {
				best = minPartial{value: v, arg: int32(i)}
			}
		}
		scanned += i - start
	}
	return best, scanned
}

// walkDown is scanFromSeed's walk over candidates [lo, to) below the
// incumbent best on a certified row, each of which displaces it on a tie.
// It stops at the first block whose running minimum bcm exceeds the
// incumbent, as every lower candidate closes with a dearer bucket, and
// skips a block whose bound from its first candidate exceeds it; each run
// of blocks between is priced in one pass. It returns the new incumbent
// and the number of candidates it priced. The walks are functions of
// their own: written inside scanFromSeed, the block index of this loop
// was kept on the stack, and a block check took about 5.5 ns.
func walkDown(prev, costs, bmin, bcm []float64, lo, to int, isSum bool, best minPartial) (minPartial, int) {
	scanned := 0
	klo := (lo + 1) / scanBlock
	for k, top := to/scanBlock, to-1; top >= lo; {
		j := k
		for j >= klo && bcm[j] <= best.value && splitCost(prev[max(j*scanBlock-1, lo)], bmin[j], isSum) <= best.value {
			j--
		}
		if from := max((j+1)*scanBlock-1, lo); from <= top {
			scanned += top - from + 1
			if r := reduceSplits(prev, costs, from, top+1, isSum); r.value <= best.value && r.arg >= 0 {
				best = r
			}
		}
		if j < klo || bcm[j] > best.value {
			break
		}
		k, top = j-1, max(j*scanBlock-1, lo)-1
	}
	return best, scanned
}

// prunedScanLazy is the split scan without a costs row: surviving
// candidates are priced by o.Cost on demand against U, the seed priced
// at this end, and no block minima exist — the prev-side cut,
// the incumbent stop, and per-candidate prev[i] > U skips (sound without
// any monotonicity: the candidate value is >= prev[i] > U >= the
// minimum) do the pruning. Each evaluation is counted in CostEvals.
// OptimalError's level-major rolling DP uses it: with no per-end reuse
// across levels there is nothing to materialize. runColumns instead fills
// each end's column once and scans it at every level, so costs are priced
// once per end, not once per level.
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

// Resume keeps the table live against a mutation of the caller's data: it
// re-anchors the table on o, the oracle over the mutated data (rebuilt,
// or the same one resumed in place; same or larger domain), and
// recomputes on pool every column from `from` — the first item changed,
// or the old domain size for an append.
// Column e of Eq. (2) reads only bucket costs within [0, e] and columns
// left of e, so an append of k items runs just the k new columns
// (O(k·n·B) instead of O(n²·B)) and an update of item i re-runs the
// columns e >= i: cheap for hot-tail corrections, a full re-DP at i = 0.
// The budget RunDPPool was asked for re-clamps against the new domain; a
// change in the number of budget levels recomputes every column.
//
// The caller must guarantee that bucket costs wholly left of `from` are
// unchanged under o — true when o is rebuilt from the same data with only
// items >= from mutated (prefix structures agree bit-for-bit left of the
// first change; oracles whose global value grid changed still price those
// buckets identically, because added grid points carry zero mass there).
// The table and every budget's histogram are then bit-identical to a
// fresh RunDPPool over the mutated data at any worker count.
func (t *DPTable) Resume(o Oracle, from int, pool *engine.Pool) error {
	return t.resume(o, from, pool, defaultTiles)
}

// resume is Resume on tile shape ts.
func (t *DPTable) resume(o Oracle, from int, pool *engine.Pool, ts tileShape) error {
	n := o.N()
	if n < t.n {
		return fmt.Errorf("hist: resume cannot shrink the domain (%d -> %d)", t.n, n)
	}
	if from < 0 || from > t.n {
		return fmt.Errorf("hist: resume start %d outside [0, %d]", from, t.n)
	}
	bmax := min(t.breq, n)
	if bmax != t.bmax {
		from = 0 // budget levels appear (or vanish): no column survives
	}
	if bmax < t.bmax {
		t.opt = t.opt[:bmax]
		t.choice = t.choice[:bmax]
	}
	// Rows grow with headroom: a live table absorbs appends a few items
	// at a time.
	for b := range t.opt {
		t.opt[b] = grow(t.opt[b], n)
		t.choice[b] = grow(t.choice[b], n)
	}
	for b := t.bmax; b < bmax; b++ {
		t.opt = append(t.opt, make([]float64, n))
		t.choice = append(t.choice, make([]int32, n))
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

// Oracle returns the oracle the table prices against: the one it was
// built over, or the one its last Resume re-anchored it on.
func (t *DPTable) Oracle() Oracle { return t.oracle }

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
