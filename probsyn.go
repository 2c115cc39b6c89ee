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
//	h, _ := probsyn.Build(data, probsyn.SSE, 3)
//	fmt.Println(h.Estimate(4), h.ErrorCost())
//
// Both families implement the shared Synopsis interface (point estimates,
// range sums, term count, expected error) and serialize through a
// versioned binary codec (MarshalSynopsis, UnmarshalSynopsis). Build
// selects family, exact vs approximate DP, workload weighting, metric
// parameters and DP parallelism through functional options; BuildSweep,
// BuildLive and BuildSharded (histograms only) take the same options.
// Two constructors build what Build cannot express: EquiDepthHistogram
// (a heuristic, not an optimum) and SSEWavelet (the synopsis with its
// SSE report).
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
	SSEFixed = metric.SSEFixed // histograms only: a wavelet's SSE synopsis (Theorem 7) is its SSE-fixed optimum
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

// EquiDepthHistogram builds the B-bucket equi-depth histogram over expected
// frequencies, priced under the given metric — the classic quantile
// heuristic as a comparison point. It checks the source and the metric
// parameters as Build does.
func EquiDepthHistogram(src Source, m Metric, p Params, B int) (*Histogram, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	if err := p.Check(m); err != nil {
		return nil, err
	}
	o, err := hist.NewOracle(src, m, p)
	if err != nil {
		return nil, err
	}
	return hist.EquiDepth(src.ExpectedFreqs(), o, B)
}

// SSEWavelet builds the expected-SSE-optimal B-term Haar wavelet synopsis
// (Theorem 7) together with its exact error accounting — the synopsis
// Build(src, SSE, B, WithWavelet()) returns, plus the report. The domain is
// zero-padded to a power of two. It checks the source as Build does.
func SSEWavelet(src Source, B int) (*WaveletSynopsis, *WaveletSSEReport, error) {
	if err := src.Validate(); err != nil {
		return nil, nil, err
	}
	return wavelet.BuildSSE(src, B)
}

// ReadDataset parses a dataset in the probsyn text format.
func ReadDataset(r io.Reader) (Source, error) { return textio.Read(r) }

// WriteDataset serializes a dataset in the probsyn text format.
func WriteDataset(w io.Writer, src Source) error { return textio.Write(w, src) }
