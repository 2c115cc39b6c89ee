package probsyn

import (
	"probsyn/internal/engine"
	"probsyn/internal/hist"
	"probsyn/internal/synopsis"
	"probsyn/internal/wavelet"
)

// BuildOption configures Build. The zero configuration builds the exact
// error-optimal histogram single-threaded with DefaultParams.
type BuildOption func(*buildConfig)

type buildConfig struct {
	params      Params
	parallelism int
	pool        *engine.Pool
	eps         float64
	epsSet      bool
	weights     []float64
	wavelet     bool
	quantize    int
	quantizeSet bool
	rquant      int
	rquantSet   bool
	dpStats     *hist.DPStats
}

// WithParams sets the metric parameters (the sanity constant c of the
// relative-error metrics). The default is DefaultParams().
func WithParams(p Params) BuildOption {
	return func(c *buildConfig) { c.params = p }
}

// WithParallelism spreads the synopsis DP across the given number of
// worker goroutines — the histogram DP's cost sweeps and split-point
// reductions, and the wavelet coefficient-tree DP's level sweeps; values
// <= 0 mean one worker per CPU. The parallel schedule is deterministic:
// results are bit-identical to a single-threaded build. (The SSE-optimal
// wavelet build is a greedy selection with no DP; it ignores the
// setting.)
func WithParallelism(workers int) BuildOption {
	return func(c *buildConfig) {
		if workers <= 0 {
			workers = 0 // resolved to NumCPU by the DP engine
		}
		c.parallelism = workers
	}
}

// WithPool schedules the build on a shared engine pool instead of a
// per-call one, overriding WithParallelism. A long-lived process creates
// one pool (engine.New with its worker count and, for serving workloads,
// a MaxBuilds admission cap) and passes it to every Build: concurrent
// builds then share the pool's workers, and when the pool caps admission
// each Build blocks for a build token before its DP dispatches, so N
// simultaneous build requests cannot oversubscribe cores. Determinism is
// unchanged — the synopsis is bit-identical whatever pool runs it.
func WithPool(pool *engine.Pool) BuildOption {
	return func(c *buildConfig) { c.pool = pool }
}

// WithEps switches histogram construction to the (1+eps)-approximate DP of
// Theorem 5 (cumulative metrics only), trading accuracy for a much smaller
// split-point search. eps must be > 0; a non-positive value is rejected at
// Build time rather than silently falling back to the exact DP.
func WithEps(eps float64) BuildOption {
	return func(c *buildConfig) { c.eps, c.epsSet = eps, true }
}

// WithWorkloadWeights builds the histogram under query-workload-weighted
// expected squared error: weights[i] is the access frequency of point
// queries on item i. Requires the SSEFixed (or SSE) metric — the weighted
// objective charges a stored representative, and uniform weights reduce to
// SSEFixed.
func WithWorkloadWeights(weights []float64) BuildOption {
	return func(c *buildConfig) { c.weights = weights }
}

// WithWavelet builds a B-term wavelet synopsis instead of a histogram:
// the SSE-optimal synopsis of Theorem 7 for SSE/SSEFixed, the restricted
// coefficient-tree DP of Theorem 8 otherwise.
func WithWavelet() BuildOption {
	return func(c *buildConfig) { c.wavelet = true }
}

// WithUnrestricted switches a wavelet build to the unrestricted
// thresholding DP (§4.2's "bound and quantize" sketch): retained
// coefficient values are optimized over a grid of 2q points spanning each
// coefficient's pessimistic range, plus the expected value, instead of
// being pinned to the expected value. Never worse than the restricted
// optimum; exponentially more expensive in q and log n, so intended for
// small domains. Requires WithWavelet and a non-SSE metric (for SSE the
// expected values are already unrestricted-optimal, Theorem 7).
func WithUnrestricted(q int) BuildOption {
	return func(c *buildConfig) { c.quantize, c.quantizeSet = q, true }
}

// WithQuantize switches a wavelet build to the approximate restricted DP
// (§4.2's bound-and-quantize argument): per-node incoming-value rows are
// bucketed onto grids of q >= 2 points, capping the DP's state space at
// O(n·q·B) instead of O(n²B²) so domains far beyond the exact DP's reach
// build in seconds. The synopsis's reported cost is its exactly-evaluated
// expected error — never below the exact optimum, within an additive
// bound of it (surfaced on frontiers via ApproxBound), and converging to
// it as q grows; q at least half the padded domain size is the exact DP.
// Results stay bit-identical at any worker count. Requires WithWavelet
// and a metric the restricted DP prices (not plain SSE, whose greedy
// build is already exact); mutually exclusive with WithUnrestricted.
func WithQuantize(q int) BuildOption {
	return func(c *buildConfig) { c.rquant, c.rquantSet = q, true }
}

// WithDPStats points the build at a work-counter sink: on success of a
// histogram DP build (Build, BuildSweep, BuildSharded), *st is
// overwritten with the DP's cumulative DPStats — split candidates
// scanned vs. monotonicity-pruned and bucket-cost evaluations — so the
// pruned DP's output-sensitivity is observable (psyn -v prints it). A
// coefficient-tree wavelet DP fills the same three fields with its
// budget-split candidates evaluated, those skipped as dominated, and its
// point-error evaluations. A live build (BuildLive) refreshes *st after
// every mutation, cumulatively for both families. The SSE wavelet greedy runs no DP and zeroes the sink;
// the (1+eps)-approximate DP and the equi-depth heuristic leave it
// untouched.
func WithDPStats(st *DPStats) BuildOption {
	return func(c *buildConfig) { c.dpStats = st }
}

// Build is the unified synopsis constructor: it builds a B-term synopsis
// of the requested family minimizing the metric's expected error over the
// source's possible worlds, and returns it behind the shared Synopsis
// interface (Estimate/RangeSum/Terms/ErrorCost; serializable with
// MarshalSynopsis). It is BuildSweep's frontier at budget B, extracted at
// B (budgets beyond the domain repeat the largest synopsis) — except
// under WithEps, whose DP has no frontier. OptimalHistogram,
// ApproxHistogram and WorkloadHistogram are shorthands for it.
func Build(src Source, m Metric, B int, opts ...BuildOption) (Synopsis, error) {
	p, err := resolve(src, m, opts, modeBuild)
	if err != nil {
		return nil, err
	}
	syn, _, err := p.build(src, B)
	return syn, err
}

// build returns the budget-B synopsis with the frontier it was extracted
// from (nil under histEps, whose DP has none).
func (p *plan) build(src Source, B int) (Synopsis, Frontier, error) {
	_, release, err := p.admit(1)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	if p.family == histEps {
		o, err := p.oracle(src, p.weights)
		if err != nil {
			return nil, nil, err
		}
		// Return an untyped nil on error: wrapping a nil concrete pointer
		// in the interface would defeat callers' `!= nil` checks.
		h, err := hist.ApproximatePool(o, B, p.eps, p.pool)
		if err != nil {
			return nil, nil, err
		}
		return h, nil, nil
	}
	fr, err := p.frontier(src, B)
	if err != nil {
		return nil, nil, err
	}
	syn, err := synopsis.Extract(fr, B)
	return syn, fr, err
}

// assert the concrete families satisfy the shared interface.
var (
	_ Synopsis = (*hist.Histogram)(nil)
	_ Synopsis = (*wavelet.Synopsis)(nil)
)
