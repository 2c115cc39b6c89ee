package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minTailSamples is how many timed ops a run needs before it reports a
// 90th percentile: ten samples must lie beyond it.
const minTailSamples = 100

// runBlocks is how many equal contiguous blocks a run's ops are cut into
// for the rate, the one statistic a neighbour's burst would otherwise
// move as a whole: it is the median over blocks.
const runBlocks = 5

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice.
func percentile(sorted []float64, q float64) float64 {
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cutBlocks cuts the op durations (in run order) into blocks equal
// contiguous blocks, dropping the remainder at the end; fewer ops than
// blocks make one block.
func cutBlocks(secs []float64, blocks int) [][]float64 {
	per := len(secs) / blocks
	if per == 0 {
		return [][]float64{secs}
	}
	out := make([][]float64, blocks)
	for b := range out {
		out[b] = secs[b*per : (b+1)*per]
	}
	return out
}

// blockMedianRate is the median over blocks of ops-in-block /
// block-seconds: one burst from a neighbour lands in one block and cannot
// move the median.
func blockMedianRate(secs []float64, blocks int) float64 {
	var rates []float64
	for _, blk := range cutBlocks(secs, blocks) {
		sum := 0.0
		for _, s := range blk {
			sum += s
		}
		rates = append(rates, float64(len(blk))/sum)
	}
	return median(rates)
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocBytes is the cumulative heap allocation, read without stopping
// the world (runtime.ReadMemStats would).
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// stretchSeconds is how much op time runs between two readings of the
// host's speed: long enough that the reference kernel costs under a
// tenth of the run, short enough that a change of the host's state lands
// between two readings and not inside many ops.
const stretchSeconds = 0.05

// phase is the record of one timed run of ops. Times are kept both as
// measured and normalised to the host's reference speed (hostspeed.go);
// everything reported is derived from the normalised ones.
type phase struct {
	raw      []float64 // per-op wall seconds as measured, in run order
	secs     []float64 // the same, divided by the host's slowdown around the op
	slow     []float64 // the slowdown each stretch was divided by
	cpu      float64   // user+system CPU seconds over the stretches, normalised likewise
	alloc    uint64
	failed   int
	firstErr error
}

// stopRule says when a timed phase ends: once it has measured for
// seconds and holds minOps samples, or at maxOps (0 = no cap) or
// maxSpans (0 = no cap) whichever comes first. An epochal instance only
// stops at an epoch boundary unless a cap forces it.
type stopRule struct {
	seconds  float64
	minOps   int
	maxOps   int
	maxSpans int
}

// runOps drives the closed loop: one client, the next op starts when the
// previous one has returned and been checked. Ops run in stretches of
// stretchSeconds; host reads the host's slowdown before and after each
// stretch, and the stretch's op times and CPU are divided by the mean of
// the two readings. Only Op is timed; resets between epochs, the
// readings and the accounting are not, and CPU and allocation are summed
// over the stretches only.
func runOps(inst instance, tr *tracer, host func() float64, rule stopRule) (phase, error) {
	var ph phase
	every := 0
	ep, _ := inst.(epochal)
	if ep != nil {
		every = ep.EpochOps()
	}
	timed := 0.0
	var (
		cpu0    time.Duration
		alloc0  uint64
		before  float64 // slowdown read when the open stretch began
		begun   float64 // timed when it began
		open    bool
		carried float64 // the last closing reading: the next stretch's opening one
	)
	openStretch := func() {
		before, carried = carried, 0
		if before == 0 {
			before = host()
		}
		begun = timed
		cpu0, alloc0, open = cpuTime(), allocBytes(), true
	}
	closeStretch := func() {
		if !open {
			return
		}
		cpu := cpuTime() - cpu0
		ph.alloc += allocBytes() - alloc0
		carried = host()
		f := (before + carried) / 2
		ph.slow = append(ph.slow, f)
		for _, d := range ph.raw[len(ph.secs):] {
			ph.secs = append(ph.secs, d/f)
		}
		ph.cpu += cpu.Seconds() / f
		open = false
	}
	for i := 0; ; i++ {
		if every > 0 && i%every == 0 {
			closeStretch()
			if err := ep.Reset(); err != nil {
				return ph, fmt.Errorf("reset before op %d: %w", i, err)
			}
			carried = 0 // a reset takes long enough for the host to have changed
		}
		if !open {
			openStretch()
		}
		tr.setOp(i)
		tr.begin("op")
		t0 := time.Now()
		err := inst.Op(i, tr)
		d := time.Since(t0).Seconds()
		tr.end()
		ph.raw = append(ph.raw, d)
		timed += d
		if err != nil {
			ph.failed++
			if ph.firstErr == nil {
				ph.firstErr = fmt.Errorf("op %d: %w", i, err)
				fmt.Fprintln(os.Stderr, "bench: failed", ph.firstErr)
			}
		}
		n := i + 1
		capped := (rule.maxOps > 0 && n >= rule.maxOps) || (rule.maxSpans > 0 && tr.len() >= rule.maxSpans)
		boundary := every == 0 || n%every == 0
		if capped || (timed >= rule.seconds && n >= rule.minOps && boundary) {
			break
		}
		if timed-begun >= stretchSeconds {
			closeStretch()
		}
	}
	closeStretch()
	return ph, nil
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// endToEnd derives the gated metrics from a timed phase and the
// (normalised) set-up times. Both percentiles are nearest-rank over every
// op of the run. The 90th is
// refused below the sample floor unless smoke is set (the smoke mode runs
// two ops to exercise every check, not to measure).
func endToEnd(ph phase, setupSecs []float64, artifactBytes int64, smoke bool) ([]metric, error) {
	if len(ph.secs) < minTailSamples && !smoke {
		return nil, fmt.Errorf("p90 needs >= %d samples, have %d", minTailSamples, len(ph.secs))
	}
	ms := make([]float64, len(ph.secs))
	for i, s := range ph.secs {
		ms[i] = s * 1e3
	}
	sort.Float64s(ms)
	n := float64(len(ph.secs))
	return []metric{
		{"op_p50_ms", percentile(ms, 0.5), "ms"},
		{"op_p90_ms", percentile(ms, 0.9), "ms"},
		{"ops_per_s", blockMedianRate(ph.secs, runBlocks), "1/s"},
		{"cpu_ms_per_op", ph.cpu * 1e3 / n, "ms"},
		{"alloc_mb_per_op", float64(ph.alloc) / n / (1 << 20), "MB"},
		{"artifact_kb", float64(artifactBytes) / 1024, "kB"},
		{"setup_s", median(setupSecs), "s"},
	}, nil
}
