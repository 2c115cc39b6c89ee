package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The reference sandbox is a few cores of a shared host, and what its
// neighbours do changes how fast those cores run the same instructions:
// every workload here takes about 1.5 times as long in the host's slow
// state as in its fast one, a state lasts from half a second to over an
// hour, and ten runs of one commit spread by 10-47% (README.md, "Why times
// are normalised"). No statistic inside a run removes a disturbance that
// outlasts the run, so the harness measures the disturbance instead: a
// fixed reference kernel is timed next to every stretch of ops, and every
// time the benchmark gates is divided by how much slower than its
// reference time the kernel ran. What is reported is the time the op would
// have taken on the host in its reference state.

// refScanSeconds and refSortSeconds are what the two halves of one pass of
// the reference kernel take on the reference sandbox in its fast state.
// They only fix the scale of the normalised times (at slowdown 1 they are
// wall times); a comparison of two commits divides them out.
const (
	refScanSeconds = 1.70e-3
	refSortSeconds = 1.60e-3
)

// Reference-kernel sizes, frozen: changing one changes what every recorded
// number means.
const (
	refScanN    = 256   // items of the bucket-DP half
	refScanB    = 24    // its budget
	refSortKeys = 20000 // keys of the sort half
	refMapKeys  = 4000  // of which this many go through a map
)

// refKernel is one pass of work shaped like the repo's own: the scan half
// is a histogram-style dynamic programme (dense float arithmetic with a
// compare per candidate, its table in L1/L2), the sort half a sort and a
// map fill (branches, integer work, pointer chasing). In the host's slow
// state the scan half takes 1.75 times as long and the sort half 1.35
// times; five of the six workloads take 1.45-1.55 times as long, which the
// two halves together match, and serve-point 1.8 times, which the scan
// half alone matches (README.md has the measurements). It allocates
// nothing, so it starts no garbage collection of its own.
type refKernel struct {
	pre, pre2, tab []float64
	keys, tmp      []int
	seen           map[int]int
	sink           float64
}

func newRefKernel() *refKernel {
	r := rand.New(rand.NewSource(7))
	k := &refKernel{
		pre:  make([]float64, refScanN+1),
		pre2: make([]float64, refScanN+1),
		tab:  make([]float64, (refScanB+1)*(refScanN+1)),
		keys: make([]int, refSortKeys),
		tmp:  make([]int, refSortKeys),
		seen: make(map[int]int, 1024),
	}
	for i := 1; i <= refScanN; i++ {
		v := 10 * r.Float64()
		k.pre[i] = k.pre[i-1] + v
		k.pre2[i] = k.pre2[i-1] + v*v
	}
	for i := range k.keys {
		k.keys[i] = r.Intn(1 << 30)
	}
	return k
}

// pass runs the kernel once and returns the seconds each half took.
func (k *refKernel) pass() (scan, srt float64) {
	const n, b = refScanN, refScanB
	t0 := time.Now()
	pre, pre2, tab := k.pre, k.pre2, k.tab
	for e := 1; e <= n; e++ {
		tab[e] = pre2[e] - pre[e]*pre[e]/float64(e)
	}
	for j := 1; j <= b; j++ {
		row, prev := tab[j*(n+1):(j+1)*(n+1)], tab[(j-1)*(n+1):j*(n+1)]
		for e := 1; e <= n; e++ {
			best := prev[e]
			for s := 1; s < e; s++ {
				d := pre[e] - pre[s]
				if c := prev[s] + (pre2[e] - pre2[s]) - d*d/float64(e-s); c < best {
					best = c
				}
			}
			row[e] = best
		}
	}
	t1 := time.Now()
	copy(k.tmp, k.keys)
	sort.Ints(k.tmp)
	clear(k.seen)
	for _, key := range k.tmp[:refMapKeys] {
		k.seen[key&1023] += key
	}
	k.sink += tab[b*(n+1)+n] + float64(len(k.seen)+k.tmp[17])
	return t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
}

// hostSpeed times the reference kernel on every CPU at once.
type hostSpeed struct{ kernels []*refKernel }

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{}
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		h.kernels = append(h.kernels, newRefKernel())
	}
	h.slowdown(3) // first passes fault the tables in
	return h
}

// slowdown is how many times slower than its reference time the kernel
// runs right now, as a whole and its scan half alone: one goroutine per
// CPU runs it together, the slowest counts (a neighbour may load one core
// and not the other, and a parallel build waits for its slowest worker),
// and the answer is the median over passes.
func (h *hostSpeed) slowdown(passes int) (whole, scan float64) {
	wholes, scans := make([]float64, passes), make([]float64, passes)
	secs := make([][2]float64, len(h.kernels))
	for p := 0; p < passes; p++ {
		var wg sync.WaitGroup
		for c, k := range h.kernels {
			wg.Add(1)
			go func() {
				defer wg.Done()
				secs[c][0], secs[c][1] = k.pass()
			}()
		}
		wg.Wait()
		for _, s := range secs {
			wholes[p] = max(wholes[p], s[0]+s[1])
			scans[p] = max(scans[p], s[0])
		}
	}
	return median(wholes) / (refScanSeconds + refSortSeconds), median(scans) / refScanSeconds
}
