package wavelet

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"probsyn/internal/engine"
	"probsyn/internal/haar"
	"probsyn/internal/metric"
	"probsyn/internal/numeric"
	"probsyn/internal/pdata"
)

// PointErrors evaluates per-item expected point errors E[err(g_i, v)] at
// arbitrary reconstruction values v, in time logarithmic in the item's own
// support (absolute metrics) or O(1) (squared metrics), from per-item
// precomputed tables (§4.2: "almost all of the actual error computation
// takes place at the leaf nodes"). Items are those of a value pdf padded
// to the power-of-two wavelet domain.
type PointErrors struct {
	kind metric.Kind
	p    metric.Params
	n    int
	// absolute family: item i's own support, ascending, as the run
	// val[off[i]:off[i+1]] (frequency 0, with ZeroProb, always in it), and
	// its records rec[2(off[i]+i):2(off[i+1]+i+1)]: record k, for the k
	// breakpoints <= v, is the interleaved pair (2·W<= − totW, 2·S<=) of
	// Err's subexpressions over the cumulative weight W<= and weight·value
	// S<= through the k-th breakpoint. Prefix sums over the whole global
	// value set would hold the same floats: a value the item does not list
	// adds +0.0 to both.
	off        []int
	val, rec   []float64
	totW, totS []float64
	// squared family: per-item x=Σpwv², y=Σpwv, z=Σpw
	x, y, z []float64
}

// NewPointErrors builds the evaluator for vp (already padded) under kind.
// Supported kinds: SSEFixed, SSRE, SAE, SARE, MAE, MARE.
func NewPointErrors(vp *pdata.ValuePDF, kind metric.Kind, p metric.Params) (*PointErrors, error) {
	pe := &PointErrors{kind: kind, p: p, n: vp.N}
	switch kind {
	case metric.SSEFixed, metric.SSRE:
		pe.x = make([]float64, vp.N)
		pe.y = make([]float64, vp.N)
		pe.z = make([]float64, vp.N)
		w0 := kind.Weight(0, p)
		for i := 0; i < vp.N; i++ {
			var xi, yi, zi float64
			for _, e := range vp.Items[i].Entries {
				if e.Freq == 0 {
					continue
				}
				w := kind.Weight(e.Freq, p)
				pw := e.Prob * w
				xi += pw * e.Freq * e.Freq
				yi += pw * e.Freq
				zi += pw
			}
			zi += vp.Items[i].ZeroProb() * w0
			pe.x[i], pe.y[i], pe.z[i] = xi, yi, zi
		}
	case metric.SAE, metric.SARE, metric.MAE, metric.MARE:
		pe.off = make([]int, vp.N+1)
		// A run has at most one breakpoint per entry plus frequency 0, and
		// one record more than breakpoints.
		pe.val = make([]float64, 0, vp.M()+vp.N)
		pe.rec = make([]float64, 0, 2*(vp.M()+2*vp.N))
		pe.totW = make([]float64, vp.N)
		pe.totS = make([]float64, vp.N)
		var own []pdata.FreqProb
		for i := range vp.Items {
			own = append(own[:0], pdata.FreqProb{Prob: vp.Items[i].ZeroProb()})
			for _, e := range vp.Items[i].Entries {
				if math.IsNaN(e.Freq) {
					return nil, fmt.Errorf("wavelet: item %d has a NaN frequency", i)
				}
				if e.Freq != 0 {
					own = append(own, e)
				}
			}
			slices.SortStableFunc(own, func(a, b pdata.FreqProb) int { return cmp.Compare(a.Freq, b.Freq) })
			first := len(pe.rec)
			pe.rec = append(pe.rec, 0, 0) // (W<=, S<=) before the first breakpoint
			var cw, cs float64
			for k := 0; k < len(own); {
				f, pr := own[k].Freq, 0.0
				for ; k < len(own) && own[k].Freq == f; k++ {
					pr += own[k].Prob
				}
				w := pr * kind.Weight(f, p)
				cw += w
				cs += w * f
				pe.val = append(pe.val, f)
				pe.rec = append(pe.rec, cw, cs)
			}
			for r := first; r < len(pe.rec); r += 2 {
				pe.rec[r] = float64(2*pe.rec[r]) - cw // record 0 holds 0 − totW, not −totW
				pe.rec[r+1] *= 2
			}
			pe.off[i+1] = len(pe.val)
			pe.totW[i], pe.totS[i] = cw, cs
		}
	default:
		return nil, fmt.Errorf("wavelet: PointErrors does not support %v (use BuildSSE for SSE)", kind)
	}
	return pe, nil
}

// shortRun is the longest own-support run Err scans forward; longer runs
// are binary-searched. BenchmarkPointErrorsErr puts the crossover between
// 64 and 96 breakpoints (DESIGN "Point errors").
const shortRun = 64

// Err returns E[err(g_i, v)]. The float64 conversions keep every product
// rounded on its own, so no architecture fuses it into the sum after it.
func (pe *PointErrors) Err(i int, v float64) float64 {
	switch pe.kind {
	case metric.SSEFixed, metric.SSRE:
		e := pe.x[i] - float64(2*v*pe.y[i]) + float64(v*v*pe.z[i])
		if e < 0 {
			e = 0
		}
		return e
	default:
		// k ends one past the last breakpoint <= v; record k-off[i] holds
		// the weight mass at values <= v.
		k, hi := pe.off[i], pe.off[i+1]
		if hi-k <= shortRun {
			for k < hi && pe.val[k] <= v {
				k++
			}
		} else {
			for k < hi {
				if mid := int(uint(k+hi) >> 1); pe.val[mid] <= v {
					k = mid + 1
				} else {
					hi = mid
				}
			}
		}
		r := 2 * (k + i) // item i's records start at 2(off[i]+i)
		e := float64(v*pe.rec[r]) + pe.totS[i] - pe.rec[r+1]
		if e < 0 {
			e = 0
		}
		return e
	}
}

// Cumulative reports whether the evaluator's metric sums over items.
func (pe *PointErrors) Cumulative() bool { return pe.kind.Cumulative() }

// errSlack bounds |Err(i, v') - Err(i, v)| for any v, v' inside [lo, hi]
// at distance |v' - v| <= delta: delta times the error function's
// Lipschitz constant over the interval. The squared family's derivative
// 2(vz - y) is monotone in v (z >= 0), so the constant sits at an
// endpoint; the absolute family is piecewise linear with slope
// 2·wle - totW, bounded by totW in magnitude.
func (pe *PointErrors) errSlack(i int, lo, hi, delta float64) float64 {
	switch pe.kind {
	case metric.SSEFixed, metric.SSRE:
		m := math.Max(math.Abs(pe.z[i]*lo-pe.y[i]), math.Abs(pe.z[i]*hi-pe.y[i]))
		return 2 * m * delta
	default:
		return pe.totW[i] * delta
	}
}

// SynopsisError evaluates the expected error of an arbitrary synopsis under
// the evaluator's metric: Σ_i E[err(g_i, rec_i)] for cumulative metrics,
// max_i for maximum metrics.
func (pe *PointErrors) SynopsisError(syn *Synopsis) float64 {
	rec := syn.Reconstruct()
	if pe.Cumulative() {
		var acc numeric.Accumulator
		for i, r := range rec {
			acc.Add(pe.Err(i, r))
		}
		return acc.Value()
	}
	worst := 0.0
	for i, r := range rec {
		if e := pe.Err(i, r); e > worst {
			worst = e
		}
	}
	return worst
}

// BuildRestrictedPool solves the restricted thresholding problem (§4.2,
// Theorem 8): choose which coefficients to retain, with every retained
// coefficient fixed at its expected value, minimizing the expected target
// error. It runs the coefficient-tree dynamic program OPTW[j, b, v],
// enumerating incoming values v over ancestor subsets (the O(n²·B²)
// algorithm the paper describes for the restricted case) as a bottom-up,
// level-by-level sweep over dense per-level tables (see treedp.go).
//
// The budget semantics are "at most B coefficients". Returns the synopsis
// and its optimal expected error. The DP is scheduled on pool (nil means
// serial), deterministically: every DP state is an independent slot
// computed in the serial operation order, so the synopsis — coefficients,
// values, and cost — is bit-identical at any worker count.
func BuildRestrictedPool(src pdata.Source, kind metric.Kind, p metric.Params, B int, pool *engine.Pool) (*Synopsis, float64, error) {
	return buildAt(src, RestrictedFamily, kind, p, B, 0, pool)
}

// BuildRestrictedApproxPool solves the restricted problem approximately
// with incoming values quantized onto per-node grids of q >= 2 points
// (§4.2's bound-and-quantize argument): the DP's state space drops from
// O(n²B²) to O(n·q·B), reaching domains the exact DP cannot, at a bounded
// additive suboptimality (see Sweep.ErrorBound). The returned cost is
// the synopsis's exactly-evaluated expected error, so it is never below
// the exact optimum and converges to it as q grows; q at least half the
// padded domain size degenerates to the exact DP. Results are
// bit-identical at any worker count; pool nil means serial.
func BuildRestrictedApproxPool(src pdata.Source, kind metric.Kind, p metric.Params, B, q int, pool *engine.Pool) (*Synopsis, float64, error) {
	if q < 2 {
		return nil, 0, fmt.Errorf("wavelet: quantized restricted build needs q >= 2, got %d", q)
	}
	return buildAt(src, RestrictedFamily, kind, p, B, q, pool)
}

// restrictedSingleton solves the n == 1 domain at budget b: retain c0 at
// its expected value when the budget allows and it is no worse than
// dropping.
func restrictedSingleton(pe *PointErrors, c0 float64, b int) *Synopsis {
	syn := &Synopsis{N: 1}
	errNo := pe.Err(0, 0)
	if b >= 1 && pe.Err(0, c0) <= errNo {
		syn.Indices = []int{0}
		syn.Values = []float64{c0}
		syn.Cost = pe.Err(0, c0)
		return syn
	}
	syn.Cost = errNo
	return syn
}

// restrictedSingletonForced is restrictedSingleton with the retain
// decision forced: the sharded merge pins every shard's c0.
func restrictedSingletonForced(pe *PointErrors, c0 float64) *Synopsis {
	return &Synopsis{N: 1, Indices: []int{0}, Values: []float64{c0}, Cost: pe.Err(0, c0)}
}

// padValuePDF extends a value pdf with deterministic-zero items up to the
// next power-of-two domain size.
func padValuePDF(vp *pdata.ValuePDF) *pdata.ValuePDF {
	n := haar.Pow2Ceil(vp.N)
	if n == vp.N {
		return vp
	}
	out := &pdata.ValuePDF{N: n, Items: make([]pdata.ItemPDF, n)}
	copy(out.Items, vp.Items)
	for i := vp.N; i < n; i++ {
		out.Items[i] = pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 0, Prob: 1}}}
	}
	return out
}
