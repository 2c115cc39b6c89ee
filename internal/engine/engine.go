// Package engine is the shared parallel execution layer under every
// synopsis family's dynamic program. It owns the scheduling decisions the
// DPs have in common — when to fan work out, how to cut an index range
// into per-worker chunks, and in which order the tiles of a dependency
// grid may run — so that histogram and wavelet builds run on one
// worker-pool discipline instead of re-implementing it per family.
//
// The central contract is determinism: a chunked dispatch partitions its
// index range into contiguous chunks whose per-element work is performed
// in the same order as a serial loop, and a grid dispatch (RunGrid) runs
// the same tiles at every worker count, each only after the tiles it
// reads from, so any result produced through the engine is bit-identical
// at every worker count. Clients keep that promise by writing only to
// slots derived from their own chunk (MapChunks) or tile (RunGrid).
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultGrain is the minimum number of unit operations a dispatch must
// contain before it fans out: fanning goroutines out over tiny ranges
// costs more than the loop itself.
const DefaultGrain = 2048

// Options configure a Pool.
type Options struct {
	// Workers is the number of worker goroutines; <= 0 means one per CPU.
	Workers int
	// Grain is the minimum work estimate (unit operations) below which a
	// dispatch stays serial; <= 0 means DefaultGrain. Tests lower it to
	// push small inputs through the parallel schedule — it is an Options
	// field, not a package global, so concurrent tests cannot race on it.
	Grain int
	// MaxBuilds caps how many builds the pool admits concurrently
	// (Acquire blocks past the cap); <= 0 means unlimited. One
	// process-wide pool with MaxBuilds set is the serving layer's
	// admission control: N queued builds share the pool's workers
	// instead of oversubscribing cores with per-call pools.
	MaxBuilds int
}

// Pool executes chunked sweeps and dependency-grid schedules, and
// meters build admission. A Pool is immutable after New and safe for
// concurrent use; it holds no goroutines between dispatches.
type Pool struct {
	workers  int
	grain    int
	sem      chan struct{} // admission tokens; nil = unlimited
	multiMu  sync.Mutex    // serializes multi-token acquirers (AcquireN)
	inflight atomic.Int32
	peak     atomic.Int32
}

// New returns a pool for the given options (zero value: NumCPU workers,
// DefaultGrain, unlimited admission).
func New(o Options) *Pool {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	g := o.Grain
	if g <= 0 {
		g = DefaultGrain
	}
	p := &Pool{workers: w, grain: g}
	if o.MaxBuilds > 0 {
		p.sem = make(chan struct{}, o.MaxBuilds)
	}
	return p
}

// Serial returns a single-worker pool: every dispatch runs inline.
func Serial() *Pool { return New(Options{Workers: 1}) }

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// MaxBuilds returns the pool's admission cap (0 = unlimited).
func (p *Pool) MaxBuilds() int {
	if p == nil || p.sem == nil {
		return 0
	}
	return cap(p.sem)
}

// Acquire blocks until the pool admits one more build (or ctx is done)
// and returns the token's release func. Callers bracket each synopsis
// build with Acquire/release so that however many goroutines request
// builds, at most MaxBuilds DPs dispatch onto the pool's workers at
// once. With no cap configured (or on a nil pool) Acquire is a no-op
// that never blocks. release is idempotent.
func (p *Pool) Acquire(ctx context.Context) (release func(), err error) {
	if p == nil || p.sem == nil {
		return func() {}, nil
	}
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	n := p.inflight.Add(1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			p.inflight.Add(-1)
			<-p.sem
		})
	}, nil
}

// AcquireN blocks until the pool admits n more builds at once and
// returns the granted token count with one release func covering all of
// them. The grant is all-or-nothing: a mutex serializes multi-token
// acquirers, so two concurrent AcquireN calls can never each hold a
// partial grant while waiting for the other's tokens — the loop-of-
// Acquire pattern deadlocks exactly that way on a small MaxBuilds cap.
// n is clamped to [1, MaxBuilds] (asking for more than the cap can ever
// supply would self-deadlock); the caller reads the granted count back
// and bounds its internal concurrency by it. Uncapped (or nil) pools
// grant n without blocking. Single Acquire calls are unaffected and
// cannot be starved: blocked channel sends are served in arrival order,
// so a collector mid-grant queues like any other sender.
func (p *Pool) AcquireN(ctx context.Context, n int) (granted int, release func(), err error) {
	if n < 1 {
		n = 1
	}
	if p == nil || p.sem == nil {
		return n, func() {}, nil
	}
	if c := cap(p.sem); n > c {
		n = c
	}
	p.multiMu.Lock()
	defer p.multiMu.Unlock()
	for got := 0; got < n; got++ {
		select {
		case p.sem <- struct{}{}:
		case <-ctx.Done():
			for ; got > 0; got-- {
				<-p.sem
			}
			return 0, nil, ctx.Err()
		}
	}
	in := p.inflight.Add(int32(n))
	for {
		old := p.peak.Load()
		if in <= old || p.peak.CompareAndSwap(old, in) {
			break
		}
	}
	nn := n
	var once sync.Once
	return n, func() {
		once.Do(func() {
			p.inflight.Add(int32(-nn))
			for i := 0; i < nn; i++ {
				<-p.sem
			}
		})
	}, nil
}

// InFlight returns the number of currently admitted builds.
func (p *Pool) InFlight() int {
	if p == nil {
		return 0
	}
	return int(p.inflight.Load())
}

// PeakInFlight returns the high-water mark of concurrently admitted
// builds over the pool's lifetime — the number admission control is
// asserted against in tests (it can never exceed MaxBuilds).
func (p *Pool) PeakInFlight() int {
	if p == nil {
		return 0
	}
	return int(p.peak.Load())
}

// Chunks returns how many chunks a dispatch with the given total work
// estimate fans out to: 1 when the pool is serial or the work is below the
// grain, the worker count otherwise.
func (p *Pool) Chunks(work int) int {
	if p == nil || p.workers <= 1 || work < p.grain {
		return 1
	}
	return p.workers
}

// MapChunks splits [lo, hi) into Chunks(work) contiguous near-equal chunks
// and runs fn(w, clo, chi) on each, concurrently when there is more than
// one. Chunk indices w are dense in [0, Chunks(work)); empty chunks
// (possible when hi-lo < chunks) are still invoked, with clo >= chi, so
// chunk-indexed result slots are always written. fn must only write state
// derived from its own chunk index or range.
func (p *Pool) MapChunks(lo, hi, work int, fn func(w, clo, chi int)) {
	parts := p.Chunks(work)
	if parts == 1 {
		fn(0, lo, hi)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < parts; w++ {
		clo, chi := ChunkBounds(w, parts, lo, hi)
		if clo >= chi {
			fn(w, clo, chi)
			continue
		}
		wg.Add(1)
		go func(w, clo, chi int) {
			defer wg.Done()
			fn(w, clo, chi)
		}(w, clo, chi)
	}
	wg.Wait()
}

// CutGT returns the first index i in [lo, hi) with x[i] > v, or hi when
// there is none. x[lo:hi] must be non-decreasing — the caller certifies
// that (the histogram DP checks it at write time; float wobble voids the
// guarantee otherwise). The Cut functions are the engine's bounded-search
// primitive: a reducer that holds an upper bound on the minimum cuts the
// candidate range to the indices that can still matter in O(log) instead
// of scanning past them.
func CutGT(x []float64, lo, hi int, v float64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x[mid] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// CutLE returns the first index i in [lo, hi) with x[i] <= v, or hi when
// there is none; x[lo:hi] must be non-increasing (a running minimum is,
// exactly, by construction — the histogram DP's pruned scan searches the
// running minimum of its cost column's block minima).
func CutLE(x []float64, lo, hi int, v float64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x[mid] <= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// RunGrid runs fn once on every tile (r, c) of a rows x cols dependency
// grid: tile (r, c) starts only after (r-1, c) and (r, c-1) have returned,
// and — when ring > 0 — a row-0 tile (0, c) additionally only after
// (rows-1, c-ring) has, so row 0 never runs more than ring columns ahead
// of the last row. That is the shape of a DP whose row r reads row r-1
// at earlier columns while row 0 feeds every row from a ring of ring
// column buffers (the histogram DP: row 0 prices bucket costs, the rows
// below are bands of budget levels).
//
// A completed tile happens-before every tile that depends on it, and
// every tile happens-before RunGrid's return, so fn may hand data down
// and right through plain memory. Each row is a chain, so at most
// min(rows, cols, ring) tiles are ever runnable at once; that many of the
// pool's workers (the caller among them) pull ready tiles (grid.next has
// the order). With one worker (or a nil pool) the same tiles run inline,
// column by column, top to bottom: one schedule at every worker count, so
// a client whose tiles compute the same thing in any admissible order is
// deterministic. A panic in fn stops the other workers at their next tile
// boundary and is re-raised on the caller. An empty grid runs nothing.
func (p *Pool) RunGrid(rows, cols, ring int, fn func(r, c int)) {
	workers := 1
	if p != nil {
		workers = min(p.workers, rows, cols)
		if ring > 0 {
			workers = min(workers, ring)
		}
	}
	if workers <= 1 {
		for c := 0; c < cols; c++ {
			for r := 0; r < rows; r++ {
				fn(r, c)
			}
		}
		return
	}
	g := &grid{rows: rows, cols: cols, ring: ring, fn: fn, done: make([]int, rows), busy: make([]bool, rows)}
	g.wake.L = &g.mu
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.work()
		}()
	}
	g.work()
	wg.Wait()
	if g.panicked != nil {
		panic(g.panicked)
	}
}

// gridSpin is how long a RunGrid worker with nothing ready polls before it
// parks: about what parking costs. A parked worker takes tens of
// microseconds to run again, the tiles it waits for take as long or less,
// and at 5 us of polling the histogram DP parked 20-400 times a build and
// two workers gained 1.4x, at 40 us 0-70 times and 1.8x.
const gridSpin = 40 * time.Microsecond

// grid is the shared state of one parallel RunGrid. Rows are chains, so a
// row's progress is one counter and the whole frontier is O(rows) state.
type grid struct {
	rows, cols, ring int
	fn               func(r, c int)

	mu       sync.Mutex
	wake     sync.Cond    // signalled whenever a tile has finished
	done     []int        // done[r]: tiles of row r that have returned
	busy     []bool       // busy[r]: tile (r, done[r]) is running
	ticks    atomic.Int64 // tiles finished, readable without mu (await polls it)
	panicked any          // first panic out of fn; stops every worker
}

// ready reports whether row r's next tile exists, is unclaimed and has
// every tile it depends on behind it. Called with mu held.
func (g *grid) ready(r int) bool {
	c := g.done[r]
	if c == g.cols || g.busy[r] {
		return false
	}
	if r > 0 {
		return g.done[r-1] > c
	}
	return g.ring <= 0 || c < g.ring || g.done[g.rows-1] > c-g.ring
}

// next picks the row to run a tile of: the row this worker just ran
// (prev, -1 for none) while it stays ready — the row's data is in this
// core's cache, and a chain that paces the whole grid (row 0, when pricing
// dominates) then never waits for another worker to wake up — and
// otherwise the deepest ready row, the one the ring is waiting for.
// -1 if nothing is ready. Called with mu held.
func (g *grid) next(prev int) int {
	if prev >= 0 && g.ready(prev) {
		return prev
	}
	for r := g.rows - 1; r >= 0; r-- {
		if g.ready(r) {
			return r
		}
	}
	return -1
}

// work pulls and runs ready tiles until the grid is finished or a tile
// has panicked.
func (g *grid) work() {
	g.mu.Lock()
	defer g.mu.Unlock()
	prev := -1
	for g.panicked == nil && g.done[g.rows-1] < g.cols {
		r := g.next(prev)
		if r < 0 {
			g.await()
			continue
		}
		c := g.done[r]
		g.busy[r] = true
		g.mu.Unlock()
		g.run(r, c)
		g.mu.Lock()
		g.busy[r] = false
		g.done[r]++
		g.ticks.Add(1)
		g.wake.Broadcast()
		prev = r
	}
}

// await returns once a tile has finished since the caller last looked.
// Tiles take microseconds and a parked worker tens of them to come back,
// so it polls for gridSpin first — yielding each time round, so a runtime
// with fewer processors than workers runs the worker being waited for —
// and parks only if nothing moved. Called with mu held; mu is released
// while polling and parked.
func (g *grid) await() {
	seen := g.ticks.Load()
	g.mu.Unlock()
	for t0 := time.Now(); g.ticks.Load() == seen && time.Since(t0) < gridSpin; {
		runtime.Gosched()
	}
	g.mu.Lock()
	if g.ticks.Load() == seen {
		g.wake.Wait()
	}
}

// run calls fn(r, c) with mu released, recording a panic instead of
// unwinding past the bookkeeping in work.
func (g *grid) run(r, c int) {
	defer func() {
		if v := recover(); v != nil {
			g.mu.Lock()
			if g.panicked == nil {
				g.panicked = v
			}
			g.mu.Unlock()
		}
	}()
	g.fn(r, c)
}

// ChunkBounds splits [lo, hi) into parts near-equal contiguous chunks and
// returns the w-th as a half-open range.
func ChunkBounds(w, parts, lo, hi int) (int, int) {
	span := hi - lo
	return lo + w*span/parts, lo + (w+1)*span/parts
}

// Fan runs f(0..k-1) across at most conc goroutines (a bounded task fan
// for coarse units of independent work — per-shard builds, per-peer
// RPCs — as opposed to the pool's fine-grained chunk dispatch). Each
// call's outcome lands in its own slot, so results are deterministic at
// any concurrency and completion order; the first error by index wins.
func Fan(k, conc int, f func(i int) error) error {
	if conc < 1 {
		conc = 1
	}
	if conc > k {
		conc = k
	}
	errs := make([]error, k)
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
