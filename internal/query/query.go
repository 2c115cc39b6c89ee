// Package query is the hardware-limited read path: compiled queriers
// built once per cataloged synopsis, answering point estimates and range
// sums in O(log) time with zero allocation per call.
//
// A synopsis answers queries through the generic Synopsis interface, but
// the generic methods are built for correctness, not throughput: the
// histogram range sum scans every bucket, the wavelet range sum scans
// every retained coefficient, and the wavelet point estimate allocates a
// path slice and binary-searches per ancestor. Serving millions of
// queries over a synopsis that never changes between catalog publishes
// is exactly the case for compiling: CompileHistogram precomputes
// bucket-end and prefix-weighted-sum arrays so a range sum is one binary
// search per endpoint plus O(1) arithmetic; CompileWavelet precomputes a
// sorted-ancestor evaluator so a range sum touches only the O(log n)
// retained ancestors of the two endpoints (an O(1) dense-table lookup
// each on modest domains, O(log B) binary search beyond) instead of all
// B coefficients.
//
// Compiled answers are bit-identical to the uncompiled Synopsis methods
// — not approximately equal, the same float64 bits — so a served answer
// never depends on whether it came off the compiled or the reference
// path. The identities rest on two invariants, property-tested in this
// package and documented at the methods they constrain:
//
//   - Histogram.RangeSum is defined as the prefix difference
//     P(hi) - P(lo-1) with P accumulating buckets left to right; the
//     compiled prefix array is built by the same left-to-right
//     accumulation, so prefix[k] holds the identical float64 the
//     reference scan reaches after k whole buckets.
//   - The wavelet coefficient scan adds exactly 0.0 for every retained
//     coefficient whose support falls wholly inside (or outside) the
//     query range — only the root and the ancestors of the two range
//     endpoints contribute — and a running float64 sum that starts at
//     +0.0 is unchanged by adding signed zeros. The compiled walk visits
//     exactly those ancestors, in the same ascending-index order, with
//     the same per-coefficient arithmetic.
//
// Queriers are immutable once compiled. The catalog compiles one per
// entry at publish time; republication (a live mutation, a rebuilt
// budget) swaps the whole entry, querier included, so readers never
// observe a querier for a synopsis that is no longer cataloged.
package query

import (
	"math/bits"

	"probsyn/internal/hist"
	"probsyn/internal/synopsis"
	"probsyn/internal/wavelet"
)

// Querier is the compiled read surface: the query subset of the Synopsis
// interface. Every Synopsis is itself a Querier (the uncompiled
// reference path); Compile returns an O(log)-time zero-allocation
// implementation for the families it knows.
type Querier interface {
	// Estimate returns the synopsis's approximation of item i's frequency.
	Estimate(i int) float64
	// RangeSum estimates the total frequency over the inclusive item
	// range [lo, hi] (out-of-domain ends are clamped).
	RangeSum(lo, hi int) float64
	// Domain returns the number of items the querier covers, [0, Domain()).
	Domain() int
}

// Compile returns the compiled querier for a synopsis: the precomputed
// fast path for histograms and wavelets, and the synopsis itself (its
// generic methods are a valid, slower querier) for any other family.
// Compiled answers are bit-identical to the synopsis's own methods.
func Compile(s synopsis.Synopsis) Querier {
	switch t := s.(type) {
	case *hist.Histogram:
		return CompileHistogram(t)
	case *wavelet.Synopsis:
		return CompileWavelet(t)
	default:
		return s
	}
}

// HistogramQuerier answers histogram queries in O(log B) per call from
// precomputed bucket-end and prefix-weighted-sum arrays.
type HistogramQuerier struct {
	n      int
	starts []int     // bucket start items, ascending
	ends   []int     // bucket end items, ascending
	reps   []float64 // bucket representatives
	// prefix[k] is the estimated total frequency of buckets 0..k-1 —
	// sum of width*rep accumulated left to right, the same order (and
	// therefore the same float64 rounding) as Histogram.prefixTo.
	prefix []float64
}

// CompileHistogram precomputes the querier arrays for a histogram. The
// histogram is read once; later mutations to it are not reflected (the
// catalog republishes a new entry, and with it a new querier, instead of
// mutating in place).
func CompileHistogram(h *hist.Histogram) *HistogramQuerier {
	q := &HistogramQuerier{
		n:      h.N,
		starts: make([]int, len(h.Buckets)),
		ends:   make([]int, len(h.Buckets)),
		reps:   make([]float64, len(h.Buckets)),
		prefix: make([]float64, len(h.Buckets)),
	}
	total := 0.0
	for k, b := range h.Buckets {
		q.starts[k] = b.Start
		q.ends[k] = b.End
		q.reps[k] = b.Rep
		q.prefix[k] = total
		total += float64(float64(b.Width()) * b.Rep)
	}
	return q
}

// Domain returns the histogram's item count.
func (q *HistogramQuerier) Domain() int { return q.n }

// bucketOf returns the index of the bucket containing item i (i must be
// in-domain): the first bucket whose end is >= i. Inlined binary search —
// sort.Search costs a non-inlinable closure call per probe.
func (q *HistogramQuerier) bucketOf(i int) int {
	lo, hi := 0, len(q.ends)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q.ends[m] < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(q.ends) {
		lo = len(q.ends) - 1 // unreachable on a Validate()-clean histogram
	}
	return lo
}

// Estimate is bit-identical to Histogram.Estimate (same clamp, same
// representative lookup), one binary search, zero allocations.
func (q *HistogramQuerier) Estimate(i int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= q.n {
		i = q.n - 1
	}
	return q.reps[q.bucketOf(i)]
}

// prefixTo returns P(i) exactly as Histogram.prefixTo computes it:
// prefix[k] is the identical left-to-right accumulation over the k whole
// buckets before i's bucket, and the partial term uses the same
// expression, rounded on its own as there — so the float64 result is
// bit-identical on every architecture.
func (q *HistogramQuerier) prefixTo(i int) float64 {
	k := q.bucketOf(i)
	return q.prefix[k] + float64(float64(i-q.starts[k]+1)*q.reps[k])
}

// RangeSum is bit-identical to Histogram.RangeSum: the same clamp and the
// same prefix difference P(hi) - P(lo-1), in O(log B) time with zero
// allocations.
func (q *HistogramQuerier) RangeSum(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi >= q.n {
		hi = q.n - 1
	}
	if hi < lo {
		return 0
	}
	if lo == 0 {
		return q.prefixTo(hi)
	}
	return q.prefixTo(hi) - q.prefixTo(lo-1)
}

// waveletDenseLimit bounds the domains for which CompileWavelet builds
// the O(1) dense position table (4 bytes per coefficient slot, so at most
// 256 KiB per querier). Larger domains fall back to the O(log B) binary
// search — still allocation-free, just more probes per ancestor.
const waveletDenseLimit = 1 << 16

// WaveletQuerier answers wavelet queries by visiting only the retained
// ancestors of the queried leaves: O(log n) ancestor probes per call,
// each O(1) through the dense position table (domains up to
// waveletDenseLimit) or O(log B) by inlined binary search beyond it.
type WaveletQuerier struct {
	n     int // padded power-of-two domain
	log2n int
	// indices/values are the retained coefficients, sorted ascending by
	// index — copied so a caller mutating the source synopsis after
	// compilation cannot skew served answers.
	indices []int
	values  []float64
	// pos maps a coefficient index to its position in values, -1 when not
	// retained. Built only for domains up to waveletDenseLimit; nil means
	// find falls back to binary search over indices.
	pos []int32
	// root is the retained value of coefficient 0 (the overall average),
	// or 0 with hasRoot=false when it was not retained. Splitting it out
	// keeps the per-level walk free of the one coefficient whose support
	// arithmetic is special-cased everywhere else.
	root    float64
	hasRoot bool
}

// CompileWavelet precomputes the querier state for a wavelet synopsis.
// The synopsis's coefficient slices are copied, not aliased.
func CompileWavelet(s *wavelet.Synopsis) *WaveletQuerier {
	q := &WaveletQuerier{n: s.N, log2n: bits.Len(uint(s.N)) - 1}
	for k, idx := range s.Indices {
		if idx == 0 {
			q.root = s.Values[k]
			q.hasRoot = true
			continue
		}
		q.indices = append(q.indices, idx)
		q.values = append(q.values, s.Values[k])
	}
	if q.n <= waveletDenseLimit {
		q.pos = make([]int32, q.n)
		for k := range q.pos {
			q.pos[k] = -1
		}
		for k, idx := range q.indices {
			q.pos[idx] = int32(k)
		}
	}
	return q
}

// Domain returns the padded power-of-two domain, as Synopsis.Domain does.
func (q *WaveletQuerier) Domain() int { return q.n }

// find returns the retained-coefficient position of index idx, or -1:
// one array load on the dense path (kept small enough to inline into the
// per-level walks), the binary-search fallback otherwise.
func (q *WaveletQuerier) find(idx int) int {
	if q.pos != nil {
		return int(q.pos[idx])
	}
	return q.findSparse(idx)
}

// findSparse is the beyond-waveletDenseLimit fallback: an inlined binary
// search over the sorted detail indices — O(log B), no closure, no
// allocation.
func (q *WaveletQuerier) findSparse(idx int) int {
	lo, hi := 0, len(q.indices)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q.indices[m] < idx {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(q.indices) && q.indices[lo] == idx {
		return lo
	}
	return -1
}

// Estimate sums the retained ancestors of leaf i with their signs —
// the same terms, in the same order (root, then coarse to fine), with
// the same arithmetic as Synopsis.Estimate, so the result is
// bit-identical. Unlike the reference method it allocates no path slice
// and recomputes no supports: the ancestor at shift s is (n+i)>>s, and
// its sign at leaf i is bit s-1 of n+i (0: left/plus half, 1: right).
func (q *WaveletQuerier) Estimate(i int) float64 {
	if i < 0 || i >= q.n {
		// The reference method multiplies every ancestor by a zero sign
		// for out-of-domain leaves and so returns +0.0; short-circuit to
		// the same answer instead of walking a corrupt ancestor chain.
		return 0
	}
	v := 0.0
	if q.hasRoot {
		v += q.root
	}
	x := q.n + i
	for s := q.log2n; s >= 1; s-- {
		if k := q.find(x >> uint(s)); k >= 0 {
			if x>>uint(s-1)&1 == 0 {
				v += q.values[k]
			} else {
				v -= q.values[k]
			}
		}
	}
	return v
}

// RangeSum visits, in ascending index order, exactly the retained
// coefficients that contribute a nonzero term to Synopsis.RangeSum's
// full scan: the root and the ancestors of the clamped endpoints lo and
// hi. Every other retained coefficient's support lies wholly inside or
// outside [lo, hi], so the scan adds a signed zero for it — which never
// changes a float64 accumulator that starts at +0.0 (x + ±0.0 == x, and
// the accumulator can never itself become -0.0: it starts at +0.0 and
// +0.0 + -0.0 == +0.0). Each visited coefficient's term is computed with
// the scan's own overlap arithmetic, so the sum is bit-identical.
func (q *WaveletQuerier) RangeSum(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi >= q.n {
		hi = q.n - 1
	}
	total := 0.0
	if hi < lo {
		return total
	}
	if q.hasRoot {
		total += float64(q.root * float64(hi-lo+1))
	}
	xlo, xhi := q.n+lo, q.n+hi
	for s := q.log2n; s >= 1; s-- {
		la, ha := xlo>>uint(s), xhi>>uint(s)
		if k := q.find(la); k >= 0 {
			total += q.straddleTerm(k, la, lo, hi, s)
		}
		if ha != la {
			if k := q.find(ha); k >= 0 {
				total += q.straddleTerm(k, ha, lo, hi, s)
			}
		}
	}
	return total
}

// straddleTerm returns the scan's term for the retained detail
// coefficient at position k with index idx (an ancestor of lo or hi, at
// support size 1<<s): value times the signed overlap of the clamped
// query range with its plus and minus halves, with the same expressions
// Synopsis.RangeSum evaluates. The caller resolves k so the common case
// — an ancestor that was not retained — stays on the inlined find path
// with no call overhead.
func (q *WaveletQuerier) straddleTerm(k, idx, lo, hi, s int) float64 {
	size := 1 << uint(s)
	cLo := (idx - (q.n >> uint(s))) << uint(s) // first leaf of the support
	cHi := cLo + size - 1
	a, b := lo, hi
	if a < cLo {
		a = cLo
	}
	if b > cHi {
		b = cHi
	}
	mid := cLo + size/2 // first leaf of the minus half
	plus := overlap(a, b, cLo, mid-1)
	minus := overlap(a, b, mid, cHi)
	return float64(q.values[k] * float64(plus-minus))
}

// overlap returns the size of [a,b] ∩ [lo,hi] — the same helper
// Synopsis.RangeSum uses, duplicated here so the packages stay
// dependency-light in one direction only.
func overlap(a, b, lo, hi int) int {
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if a > b {
		return 0
	}
	return b - a + 1
}
