package eval

import (
	"fmt"
	"time"

	"probsyn/internal/engine"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/wavelet"
)

// ApproxFrontierPoint is one grid size of the quality-vs-speed frontier:
// how long the quantized restricted wavelet DP took, the true
// (exactly-evaluated) cost of the synopsis it extracted, and the §4.2
// additive suboptimality bound it certifies.
type ApproxFrontierPoint struct {
	Q       int     `json:"q"`
	Seconds float64 `json:"seconds"`
	Cost    float64 `json:"cost"`
	Bound   float64 `json:"bound"`
}

// ApproxFrontierResult pairs the q-sweep with the exact restricted DP
// baseline, when one was run (ExactSeconds > 0): the cost every quantized
// point converges to as q grows.
type ApproxFrontierResult struct {
	ExactSeconds float64               `json:"exact_seconds,omitempty"`
	ExactCost    float64               `json:"exact_cost,omitempty"`
	Points       []ApproxFrontierPoint `json:"points"`
}

// ApproxFrontierExperiment sweeps the quantized restricted wavelet DP's
// accuracy knob: one build per grid size q, each reporting wall time,
// true cost, and the additive error bound — the quality-vs-speed frontier
// a caller consults before picking q for a domain the exact DP cannot
// reach. With Exact set, the exact restricted DP runs first as the
// baseline (only feasible on small domains; the quantized builds exist
// precisely because the exact state space is O(n²B²)).
type ApproxFrontierExperiment struct {
	Source pdata.Source
	Metric metric.Kind
	Params metric.Params
	B      int
	// Qs are the grid sizes to sweep, each >= 2.
	Qs []int
	// Exact adds the exact restricted DP baseline.
	Exact bool
	// Pool, when non-nil, schedules every DP on this shared engine pool.
	Pool *engine.Pool
}

// Run executes the experiment: the optional exact baseline, then one
// quantized build per grid size.
func (e *ApproxFrontierExperiment) Run() (*ApproxFrontierResult, error) {
	if e.B < 1 {
		return nil, fmt.Errorf("eval: approx frontier budget %d, want >= 1", e.B)
	}
	if len(e.Qs) == 0 {
		return nil, fmt.Errorf("eval: approx frontier needs at least one grid size")
	}
	out := &ApproxFrontierResult{}
	if e.Exact {
		start := time.Now()
		_, cost, err := wavelet.BuildRestrictedPool(e.Source, e.Metric, e.Params, e.B, e.Pool)
		if err != nil {
			return nil, fmt.Errorf("eval: exact baseline: %w", err)
		}
		out.ExactSeconds = time.Since(start).Seconds()
		out.ExactCost = cost
	}
	for _, q := range e.Qs {
		start := time.Now()
		sw, err := wavelet.NewSweep(e.Source, wavelet.RestrictedFamily, e.Metric, e.Params, e.B, q, e.Pool)
		if err != nil {
			return nil, fmt.Errorf("eval: q=%d: %w", q, err)
		}
		// One extraction inside the timer, as in the exact baseline's build;
		// sw.Cost would price the whole curve for the one entry read here.
		syn, err := sw.Synopsis(min(e.B, sw.Bmax()))
		if err != nil {
			return nil, fmt.Errorf("eval: q=%d: %w", q, err)
		}
		out.Points = append(out.Points, ApproxFrontierPoint{
			Q: q, Seconds: time.Since(start).Seconds(), Cost: syn.Cost, Bound: sw.ErrorBound(),
		})
	}
	return out, nil
}
