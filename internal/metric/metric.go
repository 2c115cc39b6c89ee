// Package metric defines the error objectives of the probabilistic data
// reduction problem (§2.2-2.3): the cumulative metrics SSE, SSRE, SAE, SARE
// (expected sum over items of a per-item error) and the maximum-error
// metrics MAE, MARE (maximum over items of the per-item expected error).
//
// Two squared-error variants are provided (see DESIGN.md, finding 1):
// SSE is the paper's Eq. (5) objective — the expected within-world bucket
// variance, i.e. the error against the clairvoyant per-world bucket mean —
// while SSEFixed charges each bucket against a single fixed representative,
// the semantics an actual stored synopsis delivers. SSEFixed is a histogram
// metric: a wavelet stores its coefficients at their expected values, so
// its expected SSE and SSE-fixed are one objective, which Theorem 7's SSE
// greedy minimizes.
package metric

import (
	"fmt"
	"math"
)

// Kind identifies an error objective.
type Kind int

// The supported error objectives.
const (
	SSE      Kind = iota // expected sum-squared error, paper Eq. (5) (clairvoyant representative)
	SSEFixed             // expected sum-squared error against a fixed representative (histograms only)
	SSRE                 // expected sum-squared relative error (sanity constant c)
	SAE                  // expected sum-absolute error
	SARE                 // expected sum-absolute relative error (sanity constant c)
	MAE                  // maximum per-item expected absolute error
	MARE                 // maximum per-item expected absolute relative error
)

// Params carries metric parameters. C is the sanity-bound constant of the
// relative-error metrics (§2.2); it is ignored by the absolute metrics.
type Params struct {
	C float64
}

// DefaultParams matches the paper's mid-range experimental setting c = 0.5.
func DefaultParams() Params { return Params{C: 0.5} }

// Check reports whether p is usable under k: a relative-error metric
// divides by max(c, |g|), so its sanity constant must be finite and > 0
// (NaN included: c = 0 prices a zero frequency at 0/0, and c = +Inf prices
// every synopsis at 0). The absolute metrics ignore c.
func (p Params) Check(k Kind) error {
	if k.Relative() && !(p.C > 0 && !math.IsInf(p.C, 1)) {
		return fmt.Errorf("metric: %v needs a finite sanity constant c > 0, got %g", k, p.C)
	}
	return nil
}

// String returns the conventional name of the metric.
func (k Kind) String() string {
	switch k {
	case SSE:
		return "SSE"
	case SSEFixed:
		return "SSE-fixed"
	case SSRE:
		return "SSRE"
	case SAE:
		return "SAE"
	case SARE:
		return "SARE"
	case MAE:
		return "MAE"
	case MARE:
		return "MARE"
	default:
		return fmt.Sprintf("metric.Kind(%d)", int(k))
	}
}

// Parse returns the Kind named by s (case-sensitive, as printed by String).
func Parse(s string) (Kind, error) {
	for _, k := range []Kind{SSE, SSEFixed, SSRE, SAE, SARE, MAE, MARE} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("metric: unknown metric %q", s)
}

// Cumulative reports whether the metric sums per-item errors (true) or
// takes their maximum (false).
func (k Kind) Cumulative() bool { return k != MAE && k != MARE }

// Relative reports whether the metric uses the sanity constant C.
func (k Kind) Relative() bool { return k == SSRE || k == SARE || k == MARE }

// PointError returns err(g, ĝ) for a single realized frequency g and
// estimate ĝ — the deterministic per-item error the probabilistic
// objectives take expectations of. For SSE it is the plain squared error
// (the clairvoyant-representative subtlety lives in the bucket objective,
// not in the point error).
func (k Kind) PointError(g, ghat float64, p Params) float64 {
	d := g - ghat
	switch k {
	case SSE, SSEFixed:
		return d * d
	case SSRE:
		w := math.Max(p.C, math.Abs(g))
		return d * d / (w * w)
	case SAE, MAE:
		return math.Abs(d)
	case SARE, MARE:
		return math.Abs(d) / math.Max(p.C, math.Abs(g))
	default:
		panic("metric: PointError: unknown metric")
	}
}

// Weight returns the per-value weight w(v) the relative metrics attach to a
// realized frequency v: 1/max(c,|v|)^2 for SSRE and 1/max(c,|v|) for
// SARE/MARE; 1 for the absolute metrics.
func (k Kind) Weight(v float64, p Params) float64 {
	switch k {
	case SSRE:
		w := math.Max(p.C, math.Abs(v))
		return 1 / (w * w)
	case SARE, MARE:
		return 1 / math.Max(p.C, math.Abs(v))
	default:
		return 1
	}
}
