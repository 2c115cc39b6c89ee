// Package probsyn builds histogram and wavelet synopses over probabilistic
// (uncertain) data, implementing Cormode & Garofalakis, "Histograms and
// Wavelets on Probabilistic Data" (ICDE 2009).
//
// A probabilistic relation assigns each tuple a probability distribution —
// the basic, tuple pdf, and value pdf models — and thereby defines a
// distribution over exponentially many possible worlds. probsyn constructs
// B-term synopses minimizing the expected approximation error over those
// worlds, for the standard error objectives:
//
//   - histograms: SSE (Eq. 5 of the paper), fixed-representative SSE,
//     SSRE, SAE, SARE (cumulative) and MAE, MARE (maximum), each optimal
//     via dynamic programming over O(1)/O(polylog)-time bucket-cost
//     oracles, plus a (1+eps)-approximate DP and an equi-depth heuristic;
//   - wavelets: the expected-SSE-optimal B-term Haar synopsis, and the
//     restricted coefficient-tree DP for non-SSE metrics.
//
// Quick start:
//
//	data := probsyn.Deterministic([]float64{2, 2, 0, 2, 3, 5, 4, 4})
//	h, _ := probsyn.OptimalHistogram(data, probsyn.SSE, probsyn.DefaultParams(), 3)
//	fmt.Println(h.Estimate(4), h.Cost)
//
// Both families implement the shared Synopsis interface (point estimates,
// range sums, term count, expected error) and serialize through a
// versioned binary/JSON codec (MarshalSynopsis, UnmarshalSynopsis). The
// unified constructor Build selects family, exact vs approximate DP,
// workload weighting, and DP parallelism through functional options; the
// named constructors below are thin wrappers over it.
//
// All construction functions accept any of the three data models through
// the Source interface. See DESIGN.md for the system inventory, the
// synopsis layer, and the reproduction of the paper's evaluation
// (cmd/experiments).
package probsyn

import (
	"io"

	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/textio"
	"probsyn/internal/wavelet"
)

// Data model types (see §2.1 of the paper).
type (
	// Source is any probabilistic relation over an ordered domain [0, n).
	Source = pdata.Source
	// Basic is the basic model: independent ⟨item, probability⟩ tuples.
	Basic = pdata.Basic
	// BasicTuple is one tuple of the basic model.
	BasicTuple = pdata.BasicTuple
	// TuplePDF is the tuple pdf model: per-tuple pdfs over mutually
	// exclusive alternative items.
	TuplePDF = pdata.TuplePDF
	// Tuple is one uncertain tuple of the tuple pdf model.
	Tuple = pdata.Tuple
	// Alternative is one (item, probability) alternative of a Tuple.
	Alternative = pdata.Alternative
	// ValuePDF is the value pdf model: independent per-item frequency pdfs.
	ValuePDF = pdata.ValuePDF
	// ItemPDF is one item's frequency distribution.
	ItemPDF = pdata.ItemPDF
	// FreqProb is one (frequency, probability) entry of an ItemPDF.
	FreqProb = pdata.FreqProb
)

// Synopsis types.
type (
	// Histogram is a B-bucket piecewise-constant synopsis.
	Histogram = hist.Histogram
	// Bucket is one histogram bucket.
	Bucket = hist.Bucket
	// WaveletSynopsis is a sparse set of retained Haar coefficients.
	WaveletSynopsis = wavelet.Synopsis
	// WaveletSSEReport is the exact expected-SSE accounting of an
	// SSE-optimal wavelet synopsis.
	WaveletSSEReport = wavelet.SSEReport
)

// Metric identifies an error objective; Params carries the sanity constant
// c of the relative-error metrics.
type (
	Metric = metric.Kind
	Params = metric.Params
)

// DPStats counts the work a DP performed — for a histogram, split
// candidates scanned vs. monotonicity-pruned and bucket-cost evaluations
// (see the hist package for field semantics); for a coefficient-tree
// wavelet DP, budget-split candidates evaluated vs. skipped as dominated
// and point-error evaluations. Collect it with WithDPStats. The tables
// (and codec bytes) a build produces are bit-identical whether or not
// pruning engages, and the counts are the same at every worker count.
type DPStats = hist.DPStats

// The error objectives (§2.2-2.3; see the metric package for semantics).
const (
	SSE      = metric.SSE
	SSEFixed = metric.SSEFixed
	SSRE     = metric.SSRE
	SAE      = metric.SAE
	SARE     = metric.SARE
	MAE      = metric.MAE
	MARE     = metric.MARE
)

// DefaultParams returns the paper's mid-range sanity constant c = 0.5.
func DefaultParams() Params { return metric.DefaultParams() }

// ParseMetric resolves a metric name ("SSE", "SSRE", "SAE", ...).
func ParseMetric(s string) (Metric, error) { return metric.Parse(s) }

// Deterministic wraps certain (non-probabilistic) frequencies as a value
// pdf with unit probabilities, so deterministic data flows through the same
// algorithms.
func Deterministic(freqs []float64) *ValuePDF { return pdata.Deterministic(freqs) }

// OptimalHistogram builds the error-optimal B-bucket histogram for the
// metric over any probabilistic source (Theorems 1-4 and 6 of the paper).
// It is shorthand for Build(src, m, B, WithParams(p)).
func OptimalHistogram(src Source, m Metric, p Params, B int) (*Histogram, error) {
	return histogramOf(Build(src, m, B, WithParams(p)))
}

// histogramOf narrows a histogram Build's result to its concrete type.
func histogramOf(s Synopsis, err error) (*Histogram, error) {
	if err != nil {
		return nil, err
	}
	return s.(*Histogram), nil
}

// ApproxHistogram builds a (1+eps)-approximate B-bucket histogram for a
// cumulative metric (Theorem 5), trading accuracy for a much smaller
// search. It is shorthand for Build(src, m, B, WithParams(p), WithEps(eps)),
// and beats the exact DP only on large domains: at B=16 from n=32768 at
// eps >= 0.5 and from n=65536 at eps >= 0.25 (see WithEps).
func ApproxHistogram(src Source, m Metric, p Params, B int, eps float64) (*Histogram, error) {
	return histogramOf(Build(src, m, B, WithParams(p), WithEps(eps)))
}

// EquiDepthHistogram builds the B-bucket equi-depth histogram over expected
// frequencies, priced under the given metric — the classic quantile
// heuristic as a comparison point.
func EquiDepthHistogram(src Source, m Metric, p Params, B int) (*Histogram, error) {
	o, err := hist.NewOracle(src, m, p)
	if err != nil {
		return nil, err
	}
	return hist.EquiDepth(src.ExpectedFreqs(), o, B)
}

// SSEWavelet builds the expected-SSE-optimal B-term Haar wavelet synopsis
// (Theorem 7) together with its exact error accounting. The domain is
// zero-padded to a power of two.
func SSEWavelet(src Source, B int) (*WaveletSynopsis, *WaveletSSEReport, error) {
	return wavelet.BuildSSE(src, B)
}

// RestrictedWavelet builds the optimal restricted (coefficients fixed to
// their expected values) B-term wavelet synopsis for a non-SSE metric
// (Theorem 8), returning the synopsis and its expected error. It is
// single-threaded; Build(src, m, B, WithWavelet(), WithParallelism(k))
// runs the same DP across k workers with a bit-identical result.
func RestrictedWavelet(src Source, m Metric, p Params, B int) (*WaveletSynopsis, float64, error) {
	return wavelet.BuildRestrictedPool(src, m, p, B, nil)
}

// UnrestrictedWavelet builds a B-term wavelet synopsis for a non-SSE
// metric with retained coefficient values optimized over quantized
// candidate ranges (2q grid points plus the expected value per
// coefficient) — the unrestricted thresholding problem the paper's §4.2
// defers, implemented via its "bound and quantize" sketch. Never worse
// than RestrictedWavelet; exponentially more expensive in q and log n, so
// intended for small domains.
func UnrestrictedWavelet(src Source, m Metric, p Params, B, q int) (*WaveletSynopsis, float64, error) {
	return wavelet.BuildUnrestrictedPool(src, m, p, B, q, nil)
}

// WorkloadHistogram builds the optimal B-bucket histogram under
// query-workload-weighted expected squared error: weights[i] is the
// access frequency of point queries on item i (the non-uniform-workload
// extension the paper's concluding remarks pose). Uniform weights reduce
// to the SSEFixed objective. It is shorthand for
// Build(src, SSEFixed, B, WithWorkloadWeights(weights)).
func WorkloadHistogram(src Source, weights []float64, B int) (*Histogram, error) {
	return histogramOf(Build(src, SSEFixed, B, WithWorkloadWeights(weights)))
}

// ExpectedSSE returns the exact expected sum-squared error of an arbitrary
// wavelet synopsis over the source.
func ExpectedSSE(src Source, syn *WaveletSynopsis) float64 {
	return wavelet.ExpectedSSEOf(src, syn)
}

// ReadDataset parses a dataset in the probsyn text format.
func ReadDataset(r io.Reader) (Source, error) { return textio.Read(r) }

// WriteDataset serializes a dataset in the probsyn text format.
func WriteDataset(w io.Writer, src Source) error { return textio.Write(w, src) }
