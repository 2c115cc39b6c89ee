package probsyn

import (
	"context"
	"fmt"

	"probsyn/internal/engine"
	"probsyn/internal/hist"
	"probsyn/internal/wavelet"
)

// family names the construction a plan runs.
type family int

const (
	histExact           family = iota // the DP of Eq. (2) over a bucket-cost oracle
	histEps                           // the (1+eps)-approximate DP of Theorem 5: per budget, no frontier
	waveletSSE                        // the greedy top-B of Theorem 7
	waveletRestricted                 // the coefficient-tree DP of Theorem 8; q = 0 exact, q >= 2 quantized
	waveletUnrestricted               // the same DP over candidate grids of 2q values per coefficient
)

// wavelet maps a wavelet family to the wavelet package's name for it.
func (f family) wavelet() (wavelet.Family, bool) {
	switch f {
	case waveletSSE:
		return wavelet.SSEFamily, true
	case waveletRestricted:
		return wavelet.RestrictedFamily, true
	case waveletUnrestricted:
		return wavelet.UnrestrictedFamily, true
	}
	return 0, false
}

// mode is what an entry point does with the plan's DP.
type mode int

const (
	modeBuild    mode = iota // Build: extract one synopsis
	modeFrontier             // BuildSweep, BuildLive: hand out the whole cost-vs-budget curve
	modeSharded              // BuildSharded: k curves merged by shard.Allocate
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
	q       int       // the wavelet DP families' quantization
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
	p := &plan{
		metric: m, params: cfg.params, eps: cfg.eps, weights: cfg.weights,
		pool: cfg.pool, stats: cfg.dpStats,
	}
	switch {
	case !cfg.wavelet && cfg.quantizeSet:
		return nil, fmt.Errorf("probsyn: unrestricted coefficient values are a wavelet option")
	case !cfg.wavelet && cfg.rquantSet:
		return nil, fmt.Errorf("probsyn: incoming-value quantization is a wavelet option")
	case !cfg.wavelet && cfg.weights != nil && m != SSE && m != SSEFixed:
		return nil, fmt.Errorf("probsyn: workload weights require the SSE or SSE-fixed metric, got %v", m)
	case !cfg.wavelet && cfg.epsSet:
		p.family = histEps
	case !cfg.wavelet:
		p.family = histExact
	case cfg.weights != nil:
		return nil, fmt.Errorf("probsyn: workload weights are a histogram option")
	case cfg.epsSet:
		return nil, fmt.Errorf("probsyn: the (1+eps)-approximate DP is a histogram option")
	case cfg.quantizeSet && cfg.rquantSet:
		return nil, fmt.Errorf("probsyn: WithQuantize (approximate restricted) and WithUnrestricted are mutually exclusive")
	case cfg.quantizeSet:
		p.family, p.q = waveletUnrestricted, cfg.quantize
	case cfg.rquantSet && m == SSE:
		return nil, fmt.Errorf("probsyn: the SSE wavelet build is greedy-exact (Theorem 7); incoming-value quantization applies to the restricted DP metrics")
	case cfg.rquantSet && cfg.rquant < 2:
		return nil, fmt.Errorf("probsyn: WithQuantize needs a grid of q >= 2 points, got %d", cfg.rquant)
	case cfg.rquantSet:
		// SSE-fixed included: a stored-representative objective the
		// restricted DP prices like any other.
		p.family, p.q = waveletRestricted, cfg.rquant
	case m == SSE || m == SSEFixed:
		p.family = waveletSSE
	default:
		p.family = waveletRestricted
	}
	switch {
	case md != modeBuild && p.family == histEps:
		return nil, fmt.Errorf("probsyn: the (1+eps)-approximate DP prunes its search per budget: it has no frontier to sweep, maintain or merge across shards; use the exact DP")
	case md == modeSharded && p.family == waveletUnrestricted:
		return nil, fmt.Errorf("probsyn: unrestricted coefficient values have no sharded merge rule")
	}
	if p.pool == nil {
		p.pool = engine.New(engine.Options{Workers: cfg.parallelism})
	}
	return p, nil
}

// admit takes the build tokens a construction holds for its whole
// duration, so builds sharing a capped pool are bounded at its MaxBuilds
// (a no-op on uncapped pools, including every per-call one resolve makes).
// One DP is one token — a frontier's budgets cost one DP, so they also
// cost one build slot. A k-way sharded build asks for k, all-or-nothing
// so concurrent multi-token holders cannot deadlock a capped pool, and
// fans its shards at whatever width was granted.
func (p *plan) admit(tokens int) (granted int, release func(), err error) {
	if tokens == 1 {
		release, err = p.pool.Acquire(context.Background())
		return 1, release, err
	}
	return p.pool.AcquireN(context.Background(), tokens)
}

// oracle constructs the bucket-cost oracle a histogram DP prices against:
// workload-weighted SSE when weights are given, the metric's standard
// oracle otherwise.
func (p *plan) oracle(src Source, weights []float64) (hist.Oracle, error) {
	if weights != nil {
		return hist.NewWorkloadSSE(src, weights)
	}
	return hist.NewOracle(src, p.metric, p.params)
}

// frontier runs the plan's one DP at budget Bmax: the histogram table or
// the wavelet sweep, either of which answers every budget up to Bmax. The
// caller holds the admission token. (histEps has no frontier; resolve lets
// it through for Build alone, which runs it directly.)
func (p *plan) frontier(src Source, Bmax int) (Frontier, error) {
	if wf, ok := p.family.wavelet(); ok {
		sw, err := wavelet.NewSweep(src, wf, p.metric, p.params, Bmax, p.q, p.pool)
		if err != nil {
			return nil, err
		}
		p.report(sw.Stats())
		return waveletFrontier{sw}, nil
	}
	o, err := p.oracle(src, p.weights)
	if err != nil {
		return nil, err
	}
	tab, err := hist.RunDPPool(o, Bmax, p.pool)
	if err != nil {
		return nil, err
	}
	p.report(tab.Stats())
	return histFrontier{tab}, nil
}

// report overwrites the WithDPStats sink, if there is one.
func (p *plan) report(st DPStats) {
	if p.stats != nil {
		*p.stats = st
	}
}
