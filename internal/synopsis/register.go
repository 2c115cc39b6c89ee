package synopsis

import (
	"fmt"

	"probsyn/internal/hist"
	"probsyn/internal/wavelet"
)

// Wire-format type names. These are persistence format, not Go identifiers:
// never change them for existing families, only add new ones.
const (
	histogramType = "histogram"
	waveletType   = "wavelet"
)

// Histogram payload (binary v1): u32 N, u32 buckets, then per bucket
// u32 start, u32 end, f64 rep, f64 cost, then f64 total cost.
const histBucketBytes = 4 + 4 + 8 + 8

func encodeHistogramBinary(s Synopsis) ([]byte, error) {
	h := s.(*hist.Histogram)
	var w binWriter
	w.u32(uint32(h.N))
	w.u32(uint32(len(h.Buckets)))
	for _, b := range h.Buckets {
		w.u32(uint32(b.Start))
		w.u32(uint32(b.End))
		w.f64(b.Rep)
		w.f64(b.Cost)
	}
	w.f64(h.Cost)
	return w.buf, nil
}

func decodeHistogramBinary(payload []byte) (Synopsis, error) {
	r := &binReader{buf: payload}
	n := int(r.u32())
	nb := int(r.u32())
	if r.err == nil && len(r.buf) != nb*histBucketBytes+8 {
		return nil, fmt.Errorf("synopsis: histogram payload length %d does not match %d buckets", len(payload), nb)
	}
	h := &hist.Histogram{N: n, Buckets: make([]hist.Bucket, nb)}
	for k := range h.Buckets {
		h.Buckets[k] = hist.Bucket{
			Start: int(r.u32()),
			End:   int(r.u32()),
			Rep:   r.f64(),
			Cost:  r.f64(),
		}
	}
	h.Cost = r.f64()
	if err := r.finish(); err != nil {
		return nil, err
	}
	if err := h.Validate(); err != nil {
		return nil, fmt.Errorf("synopsis: decoded histogram invalid: %w", err)
	}
	return h, nil
}

// Wavelet payload (binary v1): u32 N, u32 terms, then per term u32 index,
// f64 value, then f64 cost.
const waveletTermBytes = 4 + 8

func encodeWaveletBinary(s Synopsis) ([]byte, error) {
	syn := s.(*wavelet.Synopsis)
	var w binWriter
	w.u32(uint32(syn.N))
	w.u32(uint32(len(syn.Indices)))
	for k, idx := range syn.Indices {
		w.u32(uint32(idx))
		w.f64(syn.Values[k])
	}
	w.f64(syn.Cost)
	return w.buf, nil
}

func decodeWaveletBinary(payload []byte) (Synopsis, error) {
	r := &binReader{buf: payload}
	n := int(r.u32())
	terms := int(r.u32())
	if r.err == nil && len(r.buf) != terms*waveletTermBytes+8 {
		return nil, fmt.Errorf("synopsis: wavelet payload length %d does not match %d terms", len(payload), terms)
	}
	syn := &wavelet.Synopsis{
		N:       n,
		Indices: make([]int, terms),
		Values:  make([]float64, terms),
	}
	for k := 0; k < terms; k++ {
		syn.Indices[k] = int(r.u32())
		syn.Values[k] = r.f64()
	}
	syn.Cost = r.f64()
	if err := r.finish(); err != nil {
		return nil, err
	}
	if err := syn.Validate(); err != nil {
		return nil, fmt.Errorf("synopsis: decoded wavelet synopsis invalid: %w", err)
	}
	return syn, nil
}
