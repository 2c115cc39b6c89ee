// Package pdata implements the probabilistic data models of Cormode &
// Garofalakis (§2.1): the basic model, the tuple pdf model, and the value
// pdf model. It provides validation, conversions between the models
// (including the induced value pdf), per-item frequency moments, and a
// possible-worlds engine (exact enumeration for small inputs and Monte
// Carlo sampling for large ones) that serves as ground truth for every
// synopsis algorithm in the library.
//
// Throughout, the ordered domain is [0, n) and g_i denotes the (random)
// frequency of domain item i. In the basic and tuple pdf models g_i is a
// non-negative integer count; in the value pdf model it may be fractional.
package pdata

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// probTol is the slack allowed when validating that probabilities lie in
// [0,1] and per-tuple probability masses sum to at most 1; inputs produced
// by floating-point pipelines routinely overshoot by a few ulps.
const probTol = 1e-9

// validProb and validFreq are the two rules every model's Validate admits
// numbers by: a probability is finite and in [0,1] (within probTol), a
// frequency finite and non-negative. Both are written as the range the
// value must lie in, so a NaN, which fails every comparison, fails them.
func validProb(p float64) bool { return p >= -probTol && p <= 1+probTol }
func validFreq(f float64) bool { return f >= 0 && f <= math.MaxFloat64 }

// Source is a probabilistic relation over the ordered domain [0, Domain()).
// All three models implement it. EnumerateWorlds must only be called on
// small inputs (the number of worlds is exponential); Sample and
// ExpectedFreqs scale to arbitrary inputs.
type Source interface {
	// Validate checks the representation: a positive domain, items inside
	// it, probabilities in [0,1] and no pdf with mass above 1, in O(m).
	// The algorithms index by item and assume the rest; callers holding
	// data they did not validate when reading it call this first.
	Validate() error
	// Domain returns n, the size of the ordered item domain.
	Domain() int
	// M returns the input size m: the total number of (item or frequency,
	// probability) pairs in the representation.
	M() int
	// EnumerateWorlds calls yield once per possible world with the world's
	// item-frequency vector and its probability. The frequency slice is
	// reused between calls; yield must copy it if it retains it.
	// Enumeration stops early if yield returns false.
	EnumerateWorlds(yield func(freqs []float64, prob float64) bool)
	// SampleInto draws one possible world, writing its frequency vector
	// into freqs (which must have length Domain()).
	SampleInto(rng *rand.Rand, freqs []float64)
	// ExpectedFreqs returns E[g_i] for every item i.
	ExpectedFreqs() []float64
}

// ---------------------------------------------------------------------------
// Basic model (Definition 1): tuples ⟨item, probability⟩, independent.

// BasicTuple is one uncertain tuple of the basic model: item t appears in a
// possible world with probability Prob, independently of all other tuples.
type BasicTuple struct {
	Item int
	Prob float64
}

// Basic is a probabilistic relation in the basic model.
type Basic struct {
	N      int // domain size; items are in [0, N)
	Tuples []BasicTuple
}

// Validate checks domain bounds and probability ranges.
func (b *Basic) Validate() error {
	if b.N <= 0 {
		return fmt.Errorf("pdata: basic model: domain size %d, want > 0", b.N)
	}
	for k, t := range b.Tuples {
		if t.Item < 0 || t.Item >= b.N {
			return fmt.Errorf("pdata: basic tuple %d: item %d outside domain [0,%d)", k, t.Item, b.N)
		}
		if !validProb(t.Prob) {
			return fmt.Errorf("pdata: basic tuple %d: probability %v outside [0,1]", k, t.Prob)
		}
	}
	return nil
}

// Domain returns the domain size n.
func (b *Basic) Domain() int { return b.N }

// M returns the number of (item, probability) pairs.
func (b *Basic) M() int { return len(b.Tuples) }

// ExpectedFreqs returns E[g_i] = sum of probabilities of tuples for item i.
func (b *Basic) ExpectedFreqs() []float64 {
	e := make([]float64, b.N)
	for _, t := range b.Tuples {
		e[t.Item] += t.Prob
	}
	return e
}

// EnumerateWorlds enumerates the 2^m possible worlds of the basic model.
func (b *Basic) EnumerateWorlds(yield func(freqs []float64, prob float64) bool) {
	freqs := make([]float64, b.N)
	var rec func(k int, prob float64) bool
	rec = func(k int, prob float64) bool {
		if prob == 0 {
			return true // dead branch contributes nothing
		}
		if k == len(b.Tuples) {
			return yield(freqs, prob)
		}
		t := b.Tuples[k]
		// tuple absent
		if !rec(k+1, prob*(1-t.Prob)) {
			return false
		}
		// tuple present
		freqs[t.Item]++
		ok := rec(k+1, prob*t.Prob)
		freqs[t.Item]--
		return ok
	}
	rec(0, 1)
}

// SampleInto draws a world by flipping one independent coin per tuple.
func (b *Basic) SampleInto(rng *rand.Rand, freqs []float64) {
	for i := range freqs {
		freqs[i] = 0
	}
	for _, t := range b.Tuples {
		if rng.Float64() < t.Prob {
			freqs[t.Item]++
		}
	}
}

// TuplePDF converts the basic model into the tuple pdf model (of which it is
// the single-alternative special case).
func (b *Basic) TuplePDF() *TuplePDF {
	tp := &TuplePDF{N: b.N, Tuples: make([]Tuple, len(b.Tuples))}
	for k, t := range b.Tuples {
		tp.Tuples[k] = Tuple{Alts: []Alternative{{Item: t.Item, Prob: t.Prob}}}
	}
	return tp
}

// ---------------------------------------------------------------------------
// Tuple pdf model (Definition 2): each tuple is a discrete pdf over
// mutually exclusive alternative items; probabilities sum to at most 1,
// with any remainder the probability that the tuple is absent.

// Alternative is one (item, probability) alternative of an uncertain tuple.
type Alternative struct {
	Item int
	Prob float64
}

// Tuple is one uncertain tuple: a pdf over mutually exclusive alternatives.
type Tuple struct {
	Alts []Alternative
}

// TotalProb returns the summed probability mass of the tuple's alternatives.
func (t *Tuple) TotalProb() float64 {
	s := 0.0
	for _, a := range t.Alts {
		s += a.Prob
	}
	return s
}

// Span returns the minimum and maximum item named by the tuple's
// alternatives; ok is false for a tuple with no alternatives.
func (t *Tuple) Span() (lo, hi int, ok bool) {
	if len(t.Alts) == 0 {
		return 0, 0, false
	}
	lo, hi = t.Alts[0].Item, t.Alts[0].Item
	for _, a := range t.Alts[1:] {
		if a.Item < lo {
			lo = a.Item
		}
		if a.Item > hi {
			hi = a.Item
		}
	}
	return lo, hi, true
}

// AppendRun appends the tuple to dst as one run of (item, mass) pairs:
// ascending by item, alternatives naming the same item merged into one
// Bernoulli (their probabilities summed in input order), zero-probability
// alternatives dropped. It allocates only to grow dst, so a caller walking
// many tuples passes the same scratch (dst[:0]) or one flat slice for all.
func (t *Tuple) AppendRun(dst []Alternative) []Alternative {
	at := len(dst)
	for _, a := range t.Alts {
		if a.Prob != 0 {
			dst = append(dst, a)
		}
	}
	run := dst[at:]
	if len(run) < 2 {
		return dst
	}
	// Stable, so that equal items keep their input order for the sums.
	slices.SortStableFunc(run, func(a, b Alternative) int { return cmp.Compare(a.Item, b.Item) })
	w := 0
	for _, a := range run[1:] {
		if a.Item == run[w].Item {
			run[w].Prob += a.Prob
		} else {
			w++
			run[w] = a
		}
	}
	return dst[:at+w+1]
}

// TuplePDF is a probabilistic relation in the tuple pdf model.
type TuplePDF struct {
	N      int
	Tuples []Tuple
}

// Validate checks domain bounds, probability ranges and per-tuple mass.
func (tp *TuplePDF) Validate() error {
	if tp.N <= 0 {
		return fmt.Errorf("pdata: tuple pdf: domain size %d, want > 0", tp.N)
	}
	for k := range tp.Tuples {
		t := &tp.Tuples[k]
		total := 0.0
		for _, a := range t.Alts {
			if a.Item < 0 || a.Item >= tp.N {
				return fmt.Errorf("pdata: tuple %d: item %d outside domain [0,%d)", k, a.Item, tp.N)
			}
			if !validProb(a.Prob) {
				return fmt.Errorf("pdata: tuple %d: probability %v outside [0,1]", k, a.Prob)
			}
			total += a.Prob
		}
		if total > 1+probTol {
			return fmt.Errorf("pdata: tuple %d: probabilities sum to %v > 1", k, total)
		}
	}
	return nil
}

// Domain returns the domain size n.
func (tp *TuplePDF) Domain() int { return tp.N }

// M returns the total number of (item, probability) pairs across tuples.
func (tp *TuplePDF) M() int {
	m := 0
	for k := range tp.Tuples {
		m += len(tp.Tuples[k].Alts)
	}
	return m
}

// ExpectedFreqs returns E[g_i] = sum over tuples of Pr[t = i].
func (tp *TuplePDF) ExpectedFreqs() []float64 {
	e := make([]float64, tp.N)
	for k := range tp.Tuples {
		for _, a := range tp.Tuples[k].Alts {
			e[a.Item] += a.Prob
		}
	}
	return e
}

// EnumerateWorlds enumerates all alternative choices across tuples
// (including "absent" when a tuple's mass is below 1).
func (tp *TuplePDF) EnumerateWorlds(yield func(freqs []float64, prob float64) bool) {
	freqs := make([]float64, tp.N)
	var rec func(k int, prob float64) bool
	rec = func(k int, prob float64) bool {
		if prob == 0 {
			return true
		}
		if k == len(tp.Tuples) {
			return yield(freqs, prob)
		}
		t := &tp.Tuples[k]
		rem := 1 - t.TotalProb()
		if rem > 0 {
			if !rec(k+1, prob*rem) {
				return false
			}
		}
		for _, a := range t.Alts {
			freqs[a.Item]++
			ok := rec(k+1, prob*a.Prob)
			freqs[a.Item]--
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0, 1)
}

// SampleInto draws one alternative (or absence) per tuple.
func (tp *TuplePDF) SampleInto(rng *rand.Rand, freqs []float64) {
	for i := range freqs {
		freqs[i] = 0
	}
	for k := range tp.Tuples {
		u := rng.Float64()
		acc := 0.0
		for _, a := range tp.Tuples[k].Alts {
			acc += a.Prob
			if u < acc {
				freqs[a.Item]++
				break
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Value pdf model (Definition 3): per item, an explicit pdf over frequency
// values; items are independent. Probability mass not listed is implicitly
// Pr[g_i = 0].

// FreqProb is one (frequency, probability) entry of an item's pdf.
type FreqProb struct {
	Freq float64
	Prob float64
}

// ItemPDF is the discrete frequency distribution of one item. Entries need
// not mention frequency 0: the remainder 1 - sum(Prob) is implicitly
// Pr[g = 0] (for compatibility with the basic model, per Definition 3).
type ItemPDF struct {
	Entries []FreqProb
}

// ZeroProb returns the implicit (plus any explicit) probability that the
// item's frequency is zero.
func (ip *ItemPDF) ZeroProb() float64 {
	rem := 1.0
	for _, e := range ip.Entries {
		if e.Freq != 0 {
			rem -= e.Prob
		}
	}
	if rem < 0 {
		return 0
	}
	return rem
}

// Mean returns E[g] for the item.
func (ip *ItemPDF) Mean() float64 {
	s := 0.0
	for _, e := range ip.Entries {
		s += e.Prob * e.Freq
	}
	return s
}

// MeanSq returns E[g^2] for the item.
func (ip *ItemPDF) MeanSq() float64 {
	s := 0.0
	for _, e := range ip.Entries {
		s += e.Prob * e.Freq * e.Freq
	}
	return s
}

// Validate checks one item pdf in isolation: probability ranges, finite
// non-negative frequencies, and total mass at most 1. It is the per-item
// slice of ValuePDF.Validate, for callers admitting item mutations (live
// synopsis maintenance, the serving layer's append/update ingest) that
// must reject a bad pdf before touching any retained state.
func (ip *ItemPDF) Validate() error {
	total := 0.0
	for _, e := range ip.Entries {
		if !validProb(e.Prob) {
			return fmt.Errorf("pdata: item pdf: probability %v outside [0,1]", e.Prob)
		}
		if !validFreq(e.Freq) {
			return fmt.Errorf("pdata: item pdf: frequency %v not finite and non-negative", e.Freq)
		}
		total += e.Prob
	}
	if total > 1+probTol {
		return fmt.Errorf("pdata: item pdf: probabilities sum to %v > 1", total)
	}
	return nil
}

// Clone returns a deep copy of the item pdf, so a caller retaining it
// (live maintenance state) is insulated from later mutation of the
// argument's entry slice.
func (ip ItemPDF) Clone() ItemPDF {
	if ip.Entries == nil {
		return ItemPDF{}
	}
	return ItemPDF{Entries: append([]FreqProb(nil), ip.Entries...)}
}

// ValuePDF is a probabilistic relation in the value pdf model: one ItemPDF
// per domain item, items mutually independent.
type ValuePDF struct {
	N     int
	Items []ItemPDF // len N; a missing/empty ItemPDF means g_i = 0 surely
}

// Clone returns a deep copy of the value pdf. Live synopsis maintenance
// clones its input so the retained, mutable copy cannot alias (or be
// aliased by) the caller's data.
func (vp *ValuePDF) Clone() *ValuePDF {
	out := &ValuePDF{N: vp.N, Items: make([]ItemPDF, len(vp.Items))}
	for i := range vp.Items {
		out.Items[i] = vp.Items[i].Clone()
	}
	return out
}

// Validate checks shape, frequency signs, and per-item probability mass.
func (vp *ValuePDF) Validate() error {
	if vp.N <= 0 {
		return fmt.Errorf("pdata: value pdf: domain size %d, want > 0", vp.N)
	}
	if len(vp.Items) != vp.N {
		return fmt.Errorf("pdata: value pdf: %d item pdfs for domain size %d", len(vp.Items), vp.N)
	}
	for i := range vp.Items {
		if err := vp.Items[i].Validate(); err != nil {
			return fmt.Errorf("pdata: item %d: %w", i, err)
		}
	}
	return nil
}

// Domain returns the domain size n.
func (vp *ValuePDF) Domain() int { return vp.N }

// M returns the total number of (frequency, probability) pairs.
func (vp *ValuePDF) M() int {
	m := 0
	for i := range vp.Items {
		m += len(vp.Items[i].Entries)
	}
	return m
}

// ExpectedFreqs returns E[g_i] per item.
func (vp *ValuePDF) ExpectedFreqs() []float64 {
	e := make([]float64, vp.N)
	for i := range vp.Items {
		e[i] = vp.Items[i].Mean()
	}
	return e
}

// EnumerateWorlds enumerates the cross product of per-item frequency choices.
func (vp *ValuePDF) EnumerateWorlds(yield func(freqs []float64, prob float64) bool) {
	freqs := make([]float64, vp.N)
	var rec func(i int, prob float64) bool
	rec = func(i int, prob float64) bool {
		if prob == 0 {
			return true
		}
		if i == vp.N {
			return yield(freqs, prob)
		}
		ip := &vp.Items[i]
		zero := ip.ZeroProb()
		if zero > 0 {
			freqs[i] = 0
			if !rec(i+1, prob*zero) {
				return false
			}
		}
		for _, e := range ip.Entries {
			if e.Freq == 0 {
				continue // folded into ZeroProb above
			}
			freqs[i] = e.Freq
			if !rec(i+1, prob*e.Prob) {
				return false
			}
		}
		freqs[i] = 0
		return true
	}
	rec(0, 1)
}

// SampleInto draws each item's frequency independently.
func (vp *ValuePDF) SampleInto(rng *rand.Rand, freqs []float64) {
	for i := range vp.Items {
		u := rng.Float64()
		acc := 0.0
		freqs[i] = 0
		for _, e := range vp.Items[i].Entries {
			acc += e.Prob
			if u < acc {
				freqs[i] = e.Freq
				break
			}
		}
	}
}

// Deterministic wraps an ordinary (certain) frequency vector as a value pdf
// with unit probabilities, so that deterministic data can flow through the
// probabilistic algorithms unchanged (§5: "deterministic data can be
// interpreted as probabilistic data in the value pdf model with probability
// 1 of attaining a certain frequency").
func Deterministic(freqs []float64) *ValuePDF {
	vp := &ValuePDF{N: len(freqs), Items: make([]ItemPDF, len(freqs))}
	for i, f := range freqs {
		if f != 0 {
			vp.Items[i] = ItemPDF{Entries: []FreqProb{{Freq: f, Prob: 1}}}
		} else {
			vp.Items[i] = ItemPDF{Entries: []FreqProb{{Freq: 0, Prob: 1}}}
		}
	}
	return vp
}

// ErrTooManyWorlds is returned by CountWorlds when the possible-world count
// exceeds the given limit.
var ErrTooManyWorlds = errors.New("pdata: too many possible worlds to enumerate")

// CountWorlds returns the number of raw enumeration branches of src (an
// upper bound on distinct worlds), capped at limit. It lets callers guard
// EnumerateWorlds against exponential blowup.
func CountWorlds(src Source, limit float64) (float64, error) {
	count := 1.0
	mul := func(k float64) error {
		count *= k
		if count > limit {
			return ErrTooManyWorlds
		}
		return nil
	}
	switch s := src.(type) {
	case *Basic:
		for range s.Tuples {
			if err := mul(2); err != nil {
				return count, err
			}
		}
	case *TuplePDF:
		for k := range s.Tuples {
			branches := float64(len(s.Tuples[k].Alts))
			if s.Tuples[k].TotalProb() < 1-probTol {
				branches++
			}
			if branches == 0 {
				branches = 1
			}
			if err := mul(branches); err != nil {
				return count, err
			}
		}
	case *ValuePDF:
		for i := range s.Items {
			branches := 0.0
			for _, e := range s.Items[i].Entries {
				if e.Freq != 0 {
					branches++
				}
			}
			if s.Items[i].ZeroProb() > 0 {
				branches++
			}
			if branches == 0 {
				branches = 1
			}
			if err := mul(branches); err != nil {
				return count, err
			}
		}
	default:
		return 0, fmt.Errorf("pdata: CountWorlds: unknown source type %T", src)
	}
	return count, nil
}
