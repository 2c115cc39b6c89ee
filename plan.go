package probsyn

import (
	"context"
	"fmt"
	"math"

	"probsyn/internal/engine"
	"probsyn/internal/hist"
	"probsyn/internal/wavelet"
)

// family names the construction a plan runs.
type family int

const (
	histExact         family = iota // the DP of Eq. (2) over a bucket-cost oracle
	histEps                         // the (1+eps)-approximate DP of Theorem 5: per budget, no frontier
	waveletSSE                      // the greedy top-B of Theorem 7
	waveletRestricted               // the coefficient-tree DP of Theorem 8; q = 0 exact, q >= 2 quantized
)

// wavelet maps a wavelet family to the wavelet package's name for it.
func (f family) wavelet() (wavelet.Family, bool) {
	switch f {
	case waveletSSE:
		return wavelet.SSEFamily, true
	case waveletRestricted:
		return wavelet.RestrictedFamily, true
	}
	return 0, false
}

// mode is what an entry point does with the plan's DP.
type mode int

const (
	modeBuild    mode = iota // Build: extract one synopsis
	modeFrontier             // BuildSweep, BuildLive: hand out the whole cost-vs-budget curve
	modeSharded              // BuildSharded: k histogram curves merged by shard.Allocate
)

// plan is a build resolved once from (source, metric, options, mode): the
// source validated, the family to run, its parameters, the pool to run it
// on and the stats sink.
// Every rule about which options combine, and with which entry point, is
// in resolve; nothing downstream of it looks at an option again.
type plan struct {
	metric  Metric
	params  Params
	family  family
	q       int       // waveletRestricted's quantization
	eps     float64   // histEps
	weights []float64 // histogram workload weights, nil for the metric's own oracle
	pool    *engine.Pool
	stats   *DPStats // WithDPStats sink, or nil
}

func resolve(src Source, m Metric, opts []BuildOption, md mode) (*plan, error) {
	// Every entry point's source is checked here: everything downstream
	// indexes by item and trusts the probabilities.
	if err := src.Validate(); err != nil {
		return nil, err
	}
	cfg := buildConfig{params: DefaultParams(), parallelism: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if md == modeSharded && cfg.wavelet {
		return nil, fmt.Errorf("probsyn: a wavelet is not sharded: build it unsharded, with WithQuantize past the exact DP's reach")
	}
	if err := cfg.params.Check(m); err != nil {
		return nil, err
	}
	p := &plan{
		metric: m, params: cfg.params, eps: cfg.eps, weights: cfg.weights,
		pool: cfg.pool, stats: cfg.dpStats,
	}
	switch {
	case !cfg.wavelet && cfg.quantSet:
		return nil, fmt.Errorf("probsyn: incoming-value quantization is a wavelet option")
	case !cfg.wavelet && cfg.weights != nil && m != SSEFixed:
		return nil, fmt.Errorf("probsyn: workload weights price the SSE-fixed objective: ask for SSE-fixed, got %v", m)
	case !cfg.wavelet && cfg.epsSet && !(cfg.eps > 0 && !math.IsInf(cfg.eps, 1)):
		// NaN slips past a plain eps <= 0 test, and +Inf certifies nothing.
		return nil, fmt.Errorf("probsyn: WithEps needs a finite eps > 0, got %g", cfg.eps)
	case !cfg.wavelet && cfg.epsSet:
		p.family = histEps
	case !cfg.wavelet:
		p.family = histExact
	case cfg.weights != nil:
		return nil, fmt.Errorf("probsyn: workload weights are a histogram option")
	case cfg.epsSet:
		return nil, fmt.Errorf("probsyn: the (1+eps)-approximate DP is a histogram option")
	case m == SSEFixed:
		return nil, fmt.Errorf("probsyn: SSE-fixed is a histogram metric: a wavelet's SSE-fixed optimum is its SSE synopsis (Theorem 7); ask for SSE")
	case cfg.quantSet && m == SSE:
		return nil, fmt.Errorf("probsyn: the SSE wavelet build is greedy-exact (Theorem 7); incoming-value quantization applies to the restricted DP metrics")
	case cfg.quantSet && cfg.quant < 2:
		return nil, fmt.Errorf("probsyn: WithQuantize needs a grid of q >= 2 points, got %d", cfg.quant)
	case cfg.quantSet:
		p.family, p.q = waveletRestricted, cfg.quant
	case m == SSE:
		p.family = waveletSSE
	default:
		p.family = waveletRestricted
	}
	if md != modeBuild && p.family == histEps {
		return nil, fmt.Errorf("probsyn: the (1+eps)-approximate DP prunes its search per budget: it has no frontier to sweep, maintain or merge across shards; use the exact DP")
	}
	if p.pool == nil {
		p.pool = engine.New(engine.Options{Workers: cfg.parallelism})
	}
	return p, nil
}

// admit takes the build token a construction holds for its whole
// duration, so builds sharing a capped pool are bounded at its MaxBuilds
// (a no-op on uncapped pools, including every per-call one resolve makes).
// One build is one token: a frontier's budgets cost one DP, and a sharded
// build's shards fan inside the pool's workers, so neither takes more.
func (p *plan) admit() (release func(), err error) {
	return p.pool.Acquire(context.Background())
}

// oracle constructs the bucket-cost oracle a histogram DP prices against:
// workload-weighted SSE when the plan has weights, the metric's standard
// oracle otherwise.
func (p *plan) oracle(src Source) (hist.Oracle, error) {
	if p.weights != nil {
		return hist.NewWorkloadSSE(src, p.weights)
	}
	return hist.NewOracle(src, p.metric, p.params)
}

// frontier runs the plan's one DP at budget Bmax: the histogram table or
// the wavelet sweep, either of which answers every budget up to Bmax. A
// wavelet sweeps into set when there is one (a live frontier's), else
// into a pooled set that its Release puts back; a histogram has no set.
// The caller holds the admission token and reports the frontier's Stats.
// (histEps has no frontier; resolve lets it through for Build alone,
// which runs it directly.)
func (p *plan) frontier(src Source, Bmax int, set *wavelet.Buffers) (countedFrontier, error) {
	if wf, ok := p.family.wavelet(); ok {
		sweep := wavelet.NewSweep
		if set != nil {
			sweep = set.Sweep
		}
		sw, err := sweep(src, wf, p.metric, p.params, Bmax, p.q, p.pool)
		if err != nil {
			return nil, err
		}
		return waveletFrontier{sw}, nil
	}
	o, err := p.oracle(src)
	if err != nil {
		return nil, err
	}
	return p.histFrontier(o, Bmax)
}

// histFrontier runs the histogram DP over o at budget Bmax.
func (p *plan) histFrontier(o hist.Oracle, Bmax int) (countedFrontier, error) {
	tab, err := hist.RunDPPool(o, Bmax, p.pool)
	if err != nil {
		return nil, err
	}
	return histFrontier{tab}, nil
}

// report overwrites the WithDPStats sink, if there is one.
func (p *plan) report(st DPStats) {
	if p.stats != nil {
		*p.stats = st
	}
}
