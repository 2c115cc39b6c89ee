package main

import (
	"fmt"
	"math/rand"
)

// Frozen sizes. Each was chosen once, on the 2-core reference sandbox, so
// that one op takes tens of milliseconds (trains and requests: a few
// milliseconds or less) and a run_seconds-long run holds well over
// minTailSamples ops; README.md records the measurements. Changing any of
// them changes what every recorded number means: add a workload instead.
const (
	// runSeconds is BENCHMARK.json's run_seconds: how long a driver's run
	// measures.
	runSeconds = 10

	// hist-scan and hist-oracle rounds.
	histN      = 512
	histB      = 64
	tpchTuples = 4 * histN
	oracleN    = 448 // SAE / SARE domain in hist-oracle
	oracleB    = 64
	maeN       = 64 // MAE costs ~n^3: 64 items is 14 ms, 1024 is over a minute
	maeB       = 16

	// wavelet-dp round.
	wavRestrictedN = 512
	wavMaxN        = 512
	wavQuantN      = 2048
	wavQuantQ      = 32
	wavB           = 32
	wavSSEN        = 1024
	wavSSEB        = 64

	// Read-side catalog: 4 datasets x {histogram, wavelet} x
	// len(serveBudgets) = 64 SSE entries over serveN items.
	serveN        = 1024
	trainLen      = 1024 // point requests per serve-point op, ops per serve-batch body
	distinctLoads = 8    // distinct trains / batch bodies, cycled

	// serve-mutate.
	mutateN        = 512
	mutateAppend   = 4  // items per append
	mutateSpread   = 32 // update index is within this of the domain midpoint
	mutateEpochOps = 16 // rounds between resets to the pristine dataset
	warmupOps      = 5
)

var serveBudgets = [...]int{8, 16, 24, 32, 40, 48, 56, 64}

// instance is one set-up workload: inputs generated, references built
// and checked, program booted and warmed.
type instance interface {
	// Op runs operation i and checks its outputs; a non-nil error is a
	// failed op. With a non-nil tracer it records a span around every
	// call it makes into a layer.
	Op(i int, tr *tracer) error
	// ArtifactBytes is what the workload persists of its own making:
	// codec envelopes, catalog files, the packed flat file. Not the
	// dataset file, whose size is the seed's doing and not the program's.
	ArtifactBytes() int64
	// Close stops what set-up started.
	Close() error
}

// epochal is an instance whose ops change its state so that later ops
// cost more (serve-mutate appends to its dataset). Reset returns it to
// the pristine state; the runner calls it, untimed, before op 0 and then
// every EpochOps ops, and ends a run only on an epoch boundary, so every
// run measures the same mixture of op positions however long it lasts.
type epochal interface {
	EpochOps() int
	Reset() error
}

// env is what set-up gets besides the seed.
type env struct {
	dir     string // scratch directory of this set-up, inside bench/out
	workers int    // engine workers for builds: nproc, or 1 for the serial probes
	check   bool   // build references and verify against them (off only in layer probes)
}

type workload struct {
	Name  string
	Why   string
	setup func(seed int64, e env) (instance, error)
	// scanBound says the workload's ops slow with the host the way the
	// reference kernel's scan half does, not the way the whole kernel does
	// (hostspeed.go); its op times are normalised by that half alone.
	scanBound bool
}

// workloads is the registry. Names are stable identifiers: recorded
// results are keyed by them, so a workload is never renamed or resized —
// a new need gets a new entry at the end.
var workloads = []workload{
	{"hist-scan", "histogram DP over O(1) bucket-cost oracles (SSE value-pdf, SSRE, SSE tuple-pdf sweep): the split scan and its pruning do the work, the oracle little", setupHistScan, false},
	{"hist-oracle", "same DP over the expensive oracles (SAE, SARE, MAE via minimax): oracle evaluations dominate; an oracle change must move this and leave hist-scan flat", setupHistOracle, false},
	{"wavelet-dp", "coefficient-tree DP (restricted SAE and MAE, quantized SAE, SSE top-B): no histogram code runs, so it is the bypass for every histogram change", setupWaveletDP, false},
	{"serve-point", "trains of 1024 single estimate/rangesum GETs through the in-process handler over a codec-booted 64-entry catalog: routing, key resolve, querier, JSON encode", setupServePoint, true},
	{"serve-batch", "one 1024-op POST /v1/query per op over a real loopback socket, catalog booted from catalog.flat: batch decode/eval/encode with the envelope amortised", setupServeBatch, false},
	{"serve-mutate", "append+update rounds with wait:true through the handler with a flat keeper: live maintenance, persist, republish, re-pack; the write side of the read path", setupServeMutate, false},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rngFor derives an independent stream per (seed, purpose) so adding a
// draw to one input never shifts another.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x6A09E667F3BCC909
	for _, c := range []byte(purpose) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// endToEndSpec lists the gated metrics with their regression bounds, in
// report order; perLayerSpec in layers.go lists the traced ones.
// BENCHMARK.json is generated from the two (`bench manifest`).
//
// Bound is what the benchmark is accepted and later changes are gated
// by: the quartile spread of ten runs at ten seeds must stay within it,
// and should stay within a third of it (README.md, "Measured baseline").
// Every time is normalised to the host's reference speed (hostspeed.go);
// so normalised, ten seeds spread 2-10% while the sandbox moves between its
// fast and its slow state, 50% apart, and single runs land up to 11% off.
// The four timings and set-up keep the widest value the contract allows.
// Allocation repeats within 0.1% at one seed but differs by up to 6%
// between seeds, because the absolute-error tables scale with the number
// of distinct values the seed drew; its EqualSeedBound is what two runs at
// one seed are held to. Artifact size does not depend on the seed at all.
var endToEndSpec = []metricSpec{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.20, EqualSeedBound: 0.05},
	{Name: "artifact_kb", Unit: "kB", Better: "lower", Bound: 0.01},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	// EqualSeedBound, where set, is the tighter bound `bench noise` holds a
	// pair of runs at one seed to.
	EqualSeedBound float64
}
