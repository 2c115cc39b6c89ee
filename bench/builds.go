package main

import (
	"fmt"
	"math"

	"probsyn"
	"probsyn/internal/engine"
	"probsyn/internal/gen"
	"probsyn/internal/hist"
	"probsyn/internal/pdata"
	"probsyn/internal/wavelet"
)

// buildCfg is one build of a round. name is the suffix its spans and
// layer metrics carry.
type buildCfg struct {
	name    string
	wavelet bool
	src     probsyn.Source
	metric  probsyn.Metric
	B       int
	quant   int // > 0: WithQuantize(quant), an approximate build
}

// goldenEntry is one synopsis cost a set-up produced, for golden.json.
// An approximate build may come in under its golden cost (a better
// approximation), never over.
type goldenEntry struct {
	Name   string
	Cost   float64
	Approx bool
}

// costed is an instance that reports the costs of what it built.
type costed interface{ Costs() []goldenEntry }

// buildInstance runs one round per op: every config built once, in
// order. Rounds, not single builds, because a mix of cheap and dear
// builds has a bimodal latency distribution whose median flips between
// modes from run to run; a round's is unimodal.
type buildInstance struct {
	cfgs     []buildCfg
	workers  int
	pool     *engine.Pool // traced path only: the layers take the pool directly
	want     []float64    // reference ErrorCost per config; ops must match its bits
	artifact int64
	stats    []hist.DPStats // per config, from the last traced round
}

func (b *buildInstance) ArtifactBytes() int64 { return b.artifact }
func (b *buildInstance) Close() error         { return nil }

func (b *buildInstance) Costs() []goldenEntry {
	out := make([]goldenEntry, len(b.cfgs))
	for i, c := range b.cfgs {
		out[i] = goldenEntry{Name: c.name, Cost: b.want[i], Approx: c.quant > 0}
	}
	return out
}

func (c *buildCfg) options(workers int) []probsyn.BuildOption {
	opts := []probsyn.BuildOption{probsyn.WithParallelism(workers)}
	if c.wavelet {
		opts = append(opts, probsyn.WithWavelet())
		if c.quant > 0 {
			opts = append(opts, probsyn.WithQuantize(c.quant))
		}
	}
	return opts
}

func (b *buildInstance) Op(_ int, tr *tracer) error {
	var firstErr error
	for k := range b.cfgs {
		c := &b.cfgs[k]
		var syn probsyn.Synopsis
		var err error
		if tr == nil {
			syn, err = probsyn.Build(c.src, c.metric, c.B, c.options(b.workers)...)
		} else {
			syn, err = b.tracedBuild(k, tr)
		}
		tr.begin("check")
		if err == nil && b.want != nil && math.Float64bits(syn.ErrorCost()) != math.Float64bits(b.want[k]) {
			err = fmt.Errorf("cost %v, reference build had %v", syn.ErrorCost(), b.want[k])
		}
		tr.end()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return firstErr
}

// tracedBuild is probsyn.Build taken apart at its layer boundaries
// (oracle precompute, DP, extraction; one call for a wavelet family),
// with a span around each call.
func (b *buildInstance) tracedBuild(k int, tr *tracer) (probsyn.Synopsis, error) {
	c := &b.cfgs[k]
	p := probsyn.DefaultParams()
	if c.wavelet {
		tr.begin("wavelet." + c.name)
		defer tr.end()
		var syn *wavelet.Synopsis
		var err error
		switch {
		case c.quant > 0:
			syn, _, err = wavelet.BuildRestrictedApproxPool(c.src, c.metric, p, c.B, c.quant, b.pool)
		case c.metric == probsyn.SSE:
			syn, _, err = wavelet.BuildSSE(c.src, c.B)
		default:
			syn, _, err = wavelet.BuildRestrictedPool(c.src, c.metric, p, c.B, b.pool)
		}
		if err != nil {
			return nil, err
		}
		return syn, nil
	}
	tr.begin("hist.oracle_build." + c.name)
	o, err := hist.NewOracle(c.src, c.metric, p)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("hist.dp." + c.name)
	tab, err := hist.RunDPPool(o, c.B, b.pool)
	tr.end()
	if err != nil {
		return nil, err
	}
	b.stats[k] = tab.Stats()
	tr.begin("hist.extract")
	h, err := tab.Histogram(c.B)
	tr.end()
	if err != nil {
		return nil, err
	}
	return h, nil
}

// newBuildInstance builds the serial reference of every config, checks
// it against an independent recomputation, and warms up.
func newBuildInstance(cfgs []buildCfg, e env) (instance, error) {
	b := &buildInstance{
		cfgs:    cfgs,
		workers: e.workers,
		pool:    engine.New(engine.Options{Workers: e.workers}),
		stats:   make([]hist.DPStats, len(cfgs)),
	}
	if !e.check {
		return b, nil
	}
	b.want = make([]float64, len(cfgs))
	for k := range cfgs {
		c := &cfgs[k]
		ref, err := probsyn.Build(c.src, c.metric, c.B, c.options(1)...)
		if err != nil {
			return nil, fmt.Errorf("%s: reference build: %w", c.name, err)
		}
		again, err := recomputeCost(c, ref)
		if err != nil {
			return nil, fmt.Errorf("%s: recompute: %w", c.name, err)
		}
		if !closeRel(ref.ErrorCost(), again, 1e-9) {
			return nil, fmt.Errorf("%s: build reports cost %v, independent recomputation gives %v", c.name, ref.ErrorCost(), again)
		}
		blob, err := probsyn.MarshalSynopsis(ref)
		if err != nil {
			return nil, fmt.Errorf("%s: marshal: %w", c.name, err)
		}
		b.want[k] = ref.ErrorCost()
		b.artifact += int64(len(blob))
	}
	return b, warm(b)
}

// recomputeCost prices the reference a second way: histograms by the
// rolling optimal-error DP (which shares no table with the build),
// wavelets by evaluating the returned synopsis's expected error from the
// per-item error tables.
func recomputeCost(c *buildCfg, ref probsyn.Synopsis) (float64, error) {
	p := probsyn.DefaultParams()
	if !c.wavelet {
		o, err := hist.NewOracle(c.src, c.metric, p)
		if err != nil {
			return 0, err
		}
		return hist.OptimalError(o, c.B)
	}
	syn := ref.(*wavelet.Synopsis)
	if c.metric == probsyn.SSE {
		return wavelet.ExpectedSSEOf(c.src, syn), nil
	}
	// The wavelet sources here are value pdfs over a power-of-two domain,
	// so the evaluator needs no padding.
	pe, err := wavelet.NewPointErrors(pdata.AsValuePDF(c.src), c.metric, p)
	if err != nil {
		return 0, err
	}
	return pe.SynopsisError(syn), nil
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// warm runs the untimed warm-up ops that end every set-up.
func warm(inst instance) error {
	for i := 0; i < warmupOps; i++ {
		if err := inst.Op(i, nil); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

func sensor(seed int64, purpose string, n int) *probsyn.ValuePDF {
	return gen.SensorGrid(rngFor(seed, purpose), gen.DefaultSensor(n))
}

func histScanCfgs(seed int64) []buildCfg {
	return []buildCfg{
		{name: "SSE", src: sensor(seed, "hist-scan/sensor", histN), metric: probsyn.SSE, B: histB},
		{name: "SSRE", src: gen.MystiQLinkage(rngFor(seed, "hist-scan/mystiq"), gen.DefaultMystiQ(histN)), metric: probsyn.SSRE, B: histB},
		{name: "SSE-tuple", src: gen.TPCHLineitem(rngFor(seed, "hist-scan/tpch"), gen.DefaultTPCH(histN, tpchTuples)), metric: probsyn.SSE, B: histB},
	}
}

func histOracleCfgs(seed int64) []buildCfg {
	return []buildCfg{
		{name: "SAE", src: sensor(seed, "hist-oracle/sensor", oracleN), metric: probsyn.SAE, B: oracleB},
		{name: "SARE", src: gen.MystiQLinkage(rngFor(seed, "hist-oracle/mystiq"), gen.DefaultMystiQ(oracleN)), metric: probsyn.SARE, B: oracleB},
		{name: "MAE", src: sensor(seed, "hist-oracle/mae", maeN), metric: probsyn.MAE, B: maeB},
	}
}

func waveletDPCfgs(seed int64) []buildCfg {
	return []buildCfg{
		{name: "restricted", wavelet: true, src: sensor(seed, "wavelet-dp/sae", wavRestrictedN), metric: probsyn.SAE, B: wavB},
		// The maximum-error DP is MAE, not MARE: on this data the optimal
		// maximum relative error is 0.999 whatever the budget, reached with
		// 0-5 coefficients, so a MARE build has next to no output to check.
		{name: "restricted_max", wavelet: true, src: sensor(seed, "wavelet-dp/max", wavMaxN), metric: probsyn.MAE, B: wavB},
		{name: "quantized", wavelet: true, src: sensor(seed, "wavelet-dp/quant", wavQuantN), metric: probsyn.SAE, B: wavB, quant: wavQuantQ},
		{name: "sse", wavelet: true, src: sensor(seed, "wavelet-dp/sse", wavSSEN), metric: probsyn.SSE, B: wavSSEB},
	}
}

func setupHistScan(seed int64, e env) (instance, error) {
	return newBuildInstance(histScanCfgs(seed), e)
}

func setupHistOracle(seed int64, e env) (instance, error) {
	return newBuildInstance(histOracleCfgs(seed), e)
}

func setupWaveletDP(seed int64, e env) (instance, error) {
	return newBuildInstance(waveletDPCfgs(seed), e)
}
