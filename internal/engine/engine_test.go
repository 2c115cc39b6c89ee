package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestChunkBoundsCoverExactly(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 7, 16} {
		for _, span := range []int{0, 1, 2, 5, 16, 97} {
			lo, hi := 3, 3+span
			prev := lo
			for w := 0; w < parts; w++ {
				clo, chi := ChunkBounds(w, parts, lo, hi)
				if clo != prev {
					t.Fatalf("parts=%d span=%d chunk %d starts at %d, want %d", parts, span, w, clo, prev)
				}
				if chi < clo {
					t.Fatalf("parts=%d span=%d chunk %d inverted: [%d,%d)", parts, span, w, clo, chi)
				}
				prev = chi
			}
			if prev != hi {
				t.Fatalf("parts=%d span=%d chunks end at %d, want %d", parts, span, prev, hi)
			}
		}
	}
}

func TestChunksRespectsGrainAndWorkers(t *testing.T) {
	p := New(Options{Workers: 4, Grain: 100})
	if got := p.Chunks(99); got != 1 {
		t.Fatalf("below grain: %d chunks, want 1", got)
	}
	if got := p.Chunks(100); got != 4 {
		t.Fatalf("at grain: %d chunks, want 4", got)
	}
	if got := Serial().Chunks(1 << 20); got != 1 {
		t.Fatalf("serial pool: %d chunks, want 1", got)
	}
	var nilPool *Pool
	if got := nilPool.Chunks(1 << 20); got != 1 {
		t.Fatalf("nil pool: %d chunks, want 1", got)
	}
}

func TestNewDefaults(t *testing.T) {
	p := New(Options{})
	if p.Workers() != runtime.NumCPU() {
		t.Fatalf("default workers %d, want NumCPU %d", p.Workers(), runtime.NumCPU())
	}
	if p.grain != DefaultGrain {
		t.Fatalf("default grain %d, want %d", p.grain, DefaultGrain)
	}
}

// MapChunks must visit every index exactly once, at any worker count, and
// must invoke fn for empty chunks so indexed partial slots get written.
func TestMapChunksVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(Options{Workers: workers, Grain: 1})
		for _, span := range []int{0, 1, 2, 5, 100} {
			visits := make([]int32, span)
			calls := int32(0)
			p.MapChunks(0, span, span, func(w, lo, hi int) {
				atomic.AddInt32(&calls, 1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d span=%d: index %d visited %d times", workers, span, i, v)
				}
			}
			if want := int32(p.Chunks(span)); calls != want {
				t.Fatalf("workers=%d span=%d: fn called %d times, want %d", workers, span, calls, want)
			}
		}
	}
}

// A dispatch must run inline on a nil pool, not panic: Chunks nil-checks
// before any field access.
func TestMapChunksNilPoolRunsInline(t *testing.T) {
	var p *Pool
	calls := 0
	p.MapChunks(3, 7, 1<<20, func(w, clo, chi int) {
		calls++
		if w != 0 || clo != 3 || chi != 7 {
			t.Fatalf("nil pool chunk (%d, %d, %d), want (0, 3, 7)", w, clo, chi)
		}
	})
	if calls != 1 {
		t.Fatalf("nil pool made %d calls, want 1 inline", calls)
	}
}

// Acquire must bound concurrently admitted builds at MaxBuilds: the
// high-water mark of holders inside the critical section can never
// exceed the cap, and every blocked Acquire is eventually admitted.
func TestAcquireBoundsInFlightBuilds(t *testing.T) {
	const cap, callers = 3, 16
	p := New(Options{Workers: 1, MaxBuilds: cap})
	if p.MaxBuilds() != cap {
		t.Fatalf("MaxBuilds() = %d, want %d", p.MaxBuilds(), cap)
	}
	var inside, peak int32
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := p.Acquire(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			n := atomic.AddInt32(&inside, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if n <= old || atomic.CompareAndSwapInt32(&peak, old, n) {
					break
				}
			}
			runtime.Gosched()
			atomic.AddInt32(&inside, -1)
			release()
			release() // idempotent: double release must not free a second token
		}()
	}
	wg.Wait()
	if got := atomic.LoadInt32(&peak); got > cap {
		t.Fatalf("%d concurrent holders, cap %d", got, cap)
	}
	if got := p.PeakInFlight(); got > cap || got < 1 {
		t.Fatalf("PeakInFlight() = %d, want in [1, %d]", got, cap)
	}
	if got := p.InFlight(); got != 0 {
		t.Fatalf("InFlight() = %d after all releases, want 0", got)
	}
	// All tokens must be free again: cap sequential acquires succeed.
	for k := 0; k < cap; k++ {
		release, err := p.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
	}
}

func TestAcquireHonorsContextCancel(t *testing.T) {
	p := New(Options{Workers: 1, MaxBuilds: 1})
	release, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Acquire(ctx); err == nil {
		t.Fatal("Acquire with cancelled context succeeded while pool was full")
	}
	release()
	release2, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire after release: %v", err)
	}
	release2()
}

// A release func frees its own token once: calling it again must not free
// another holder's, so the pool stays full after a double release.
func TestAcquireDoubleReleaseFreesOneToken(t *testing.T) {
	p := New(Options{Workers: 1, MaxBuilds: 2})
	first, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first()
	first()
	if got := p.InFlight(); got != 1 {
		t.Fatalf("InFlight() = %d after one holder released twice, want 1", got)
	}
	third, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire into the freed slot: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(ctx); err == nil {
		// No releases: a second token already went, so they could block.
		t.Fatal("a third build was admitted under MaxBuilds 2: the double release freed a second token")
	}
	second()
	third()
}

// PeakInFlight is a high-water mark: it rises with concurrently held
// tokens and never falls as they are released. Uncapped and nil pools
// count nothing.
func TestPeakInFlightIsHighWaterMark(t *testing.T) {
	p := New(Options{Workers: 1, MaxBuilds: 4})
	var held []func()
	for k := 0; k < 3; k++ {
		release, err := p.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, release)
	}
	held[0]()
	held[1]()
	release, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if in, peak := p.InFlight(), p.PeakInFlight(); in != 2 || peak != 3 {
		t.Fatalf("InFlight, PeakInFlight = %d, %d, want 2, 3", in, peak)
	}
	release()
	held[2]()
	if in, peak := p.InFlight(), p.PeakInFlight(); in != 0 || peak != 3 {
		t.Fatalf("after every release InFlight, PeakInFlight = %d, %d, want 0, 3", in, peak)
	}
	for name, p := range map[string]*Pool{"uncapped": Serial(), "nil": nil} {
		release, err := p.Acquire(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if in, peak := p.InFlight(), p.PeakInFlight(); in != 0 || peak != 0 {
			t.Fatalf("%s: InFlight, PeakInFlight = %d, %d while a build holds a no-op token, want 0, 0", name, in, peak)
		}
		release()
	}
}

// An uncapped (or nil) pool admits everything without blocking.
func TestAcquireUnlimitedIsNoOp(t *testing.T) {
	for name, p := range map[string]*Pool{"uncapped": Serial(), "nil": nil} {
		for k := 0; k < 100; k++ {
			release, err := p.Acquire(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			release()
		}
		if p.MaxBuilds() != 0 {
			t.Fatalf("%s: MaxBuilds() = %d, want 0", name, p.MaxBuilds())
		}
	}
}

// cutRef is the linear-scan reference for the CutGT binary search: the
// first index in [lo, hi) whose value satisfies pred, or hi.
func cutRef(x []float64, lo, hi int, pred func(float64) bool) int {
	for i := lo; i < hi; i++ {
		if pred(x[i]) {
			return i
		}
	}
	return hi
}

func TestCutFunctionsMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		// Non-decreasing array with plateaus (duplicates stress the
		// first-index contract), including ±Inf and exact-zero runs.
		up := make([]float64, n)
		acc := -5.0
		for i := range up {
			if rng.Intn(3) > 0 {
				acc += float64(rng.Intn(3))
			}
			up[i] = acc
		}
		if rng.Intn(8) == 0 {
			up[n-1] = math.Inf(1)
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		for _, v := range []float64{up[rng.Intn(n)], -10, 10, 0, math.Inf(1), math.Inf(-1)} {
			if got, want := CutGT(up, lo, hi, v), cutRef(up, lo, hi, func(x float64) bool { return x > v }); got != want {
				t.Fatalf("CutGT(%v, %d, %d, %v) = %d, want %d", up, lo, hi, v, got, want)
			}
		}
	}
}

func TestCutFunctionsEmptyRange(t *testing.T) {
	x := []float64{1, 2, 3}
	for _, lo := range []int{0, 1, 3} {
		if got := CutGT(x, lo, lo, 0); got != lo {
			t.Fatalf("CutGT empty range at %d returned %d", lo, got)
		}
	}
}

// TestRunGridOrderAndCoverage: every tile runs exactly once, never before
// the tiles above and to its left have returned, and a row-0 tile never
// more than ring columns ahead of the last row — at every grid shape and
// worker count, the inline schedule included. Start and finish stamps come
// off one atomic clock; a dependency's finish stamp must precede the
// dependent's start stamp.
func TestRunGridOrderAndCoverage(t *testing.T) {
	shapes := []struct{ rows, cols int }{{1, 1}, {1, 9}, {7, 1}, {2, 2}, {5, 13}, {13, 5}}
	for _, sh := range shapes {
		for _, ring := range []int{0, 1, 2, 3, 100} {
			for _, workers := range []int{1, 2, 7} {
				pools := map[string]*Pool{"pool": New(Options{Workers: workers})}
				if workers == 1 {
					pools["nil"] = nil
				}
				for name, p := range pools {
					rows, cols := sh.rows, sh.cols
					var clock atomic.Int64
					start := make([]int64, rows*cols)
					finish := make([]int64, rows*cols)
					runs := make([]int32, rows*cols)
					p.RunGrid(rows, cols, ring, func(r, c int) {
						at := r*cols + c
						start[at] = clock.Add(1)
						atomic.AddInt32(&runs[at], 1)
						if (r+c)%3 == 0 {
							runtime.Gosched() // let another worker overtake if the schedule allows it
						}
						finish[at] = clock.Add(1)
					})
					tag := func(r, c int) string {
						return fmt.Sprintf("%s workers=%d grid %dx%d ring %d tile (%d,%d)", name, workers, rows, cols, ring, r, c)
					}
					after := func(r, c, dr, dc int) {
						if dr < 0 || dc < 0 {
							return
						}
						if f, s := finish[dr*cols+dc], start[r*cols+c]; f == 0 || f > s {
							t.Fatalf("%s started at %d, before (%d,%d) finished at %d", tag(r, c), s, dr, dc, f)
						}
					}
					for r := 0; r < rows; r++ {
						for c := 0; c < cols; c++ {
							if n := runs[r*cols+c]; n != 1 {
								t.Fatalf("%s ran %d times", tag(r, c), n)
							}
							after(r, c, r-1, c)
							after(r, c, r, c-1)
							if r == 0 && ring > 0 {
								after(r, c, rows-1, c-ring)
							}
						}
					}
				}
			}
		}
	}
}

// TestRunGridDegenerate: an empty grid runs nothing.
func TestRunGridDegenerate(t *testing.T) {
	for _, sh := range [][2]int{{0, 5}, {5, 0}, {0, 0}, {-1, 3}} {
		New(Options{Workers: 2}).RunGrid(sh[0], sh[1], 2, func(r, c int) {
			t.Fatalf("grid %dx%d ran tile (%d,%d)", sh[0], sh[1], r, c)
		})
	}
}

// TestRunGridPanicPropagates: a panic in one tile reaches the caller with
// its value, at every worker count, and the workers blocked on tiles that
// will now never become ready are released instead of deadlocking (the
// test's timeout is the deadlock detector). No tile that depends on the
// panicking one may run.
func TestRunGridPanicPropagates(t *testing.T) {
	const rows, cols, pr, pc = 6, 9, 2, 4
	for _, workers := range []int{1, 2, 7} {
		var ran [rows * cols]atomic.Bool
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			New(Options{Workers: workers}).RunGrid(rows, cols, 3, func(r, c int) {
				ran[r*cols+c].Store(true)
				if r == pr && c == pc {
					panic("tile failed")
				}
			})
		}()
		select {
		case v := <-done:
			if v != "tile failed" {
				t.Fatalf("workers=%d: RunGrid recovered %v, want the tile's panic", workers, v)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: RunGrid did not return after a tile panicked", workers)
		}
		for r := pr; r < rows; r++ {
			for c := pc; c < cols; c++ {
				if (r != pr || c != pc) && ran[r*cols+c].Load() {
					t.Fatalf("workers=%d: tile (%d,%d) ran after its dependency (%d,%d) panicked", workers, r, c, pr, pc)
				}
			}
		}
	}
}
