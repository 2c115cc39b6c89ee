// Package synopsis defines the shared surface of every B-term synopsis the
// system builds — histograms and wavelets are two instances of the same
// idea (a compact summary minimizing expected error over possible worlds,
// §1 of Cormode & Garofalakis) — together with a versioned binary and JSON
// codec so synopses can be stored, shipped, and served independently of
// the data they summarize.
//
// Each of the two families has one codec (one wire-format type name):
// Marshal picks it by the value's concrete type, Unmarshal by the type
// name recorded in the envelope.
package synopsis

import (
	"fmt"

	"probsyn/internal/hist"
	"probsyn/internal/wavelet"
)

// Synopsis is the common query surface of a built synopsis: point and
// range estimation over the item domain, plus the two pieces of build
// metadata every family shares — its size in terms and the expected error
// it was priced at.
type Synopsis interface {
	// Estimate returns the synopsis's approximation of item i's frequency.
	Estimate(i int) float64
	// RangeSum estimates the total frequency over the inclusive item
	// range [lo, hi] (out-of-domain ends are clamped).
	RangeSum(lo, hi int) float64
	// Terms returns the synopsis size in terms (buckets or retained
	// coefficients).
	Terms() int
	// ErrorCost returns the expected error recorded when the synopsis was
	// built: the DP objective value for histograms, the expected SSE or
	// restricted-DP error for wavelets.
	ErrorCost() float64
	// Domain returns the queryable item-domain size n: Estimate is
	// meaningful for i in [0, n). (For wavelets n is the padded
	// power-of-two domain.) Servers use it to reject out-of-domain
	// queries instead of fabricating an answer.
	Domain() int
}

// codec serializes one synopsis family. name is the wire-format type name
// (stable across releases; it is written into both envelopes); the
// encode/decode pairs convert to and from the family's payload bytes
// (binary) or JSON value.
type codec struct {
	name         string
	encodeBinary func(Synopsis) ([]byte, error)
	decodeBinary func([]byte) (Synopsis, error)
	encodeJSON   func(Synopsis) ([]byte, error)
	decodeJSON   func([]byte) (Synopsis, error)
}

// The two families. A third is one more value here and one more case in
// each of codecFor and codecByName.
var (
	histogramCodec = codec{histogramType, encodeHistogramBinary, decodeHistogramBinary, encodeHistogramJSON, decodeHistogramJSON}
	waveletCodec   = codec{waveletType, encodeWaveletBinary, decodeWaveletBinary, encodeWaveletJSON, decodeWaveletJSON}
)

// TypeName returns the wire-format type name of the codec that handles
// s — the name the envelopes record, which the catalog layer reuses as
// the synopsis family name.
func TypeName(s Synopsis) (string, error) {
	c, err := codecFor(s)
	if err != nil {
		return "", err
	}
	return c.name, nil
}

// codecFor returns the codec of s's family.
func codecFor(s Synopsis) (*codec, error) {
	switch s.(type) {
	case *hist.Histogram:
		return &histogramCodec, nil
	case *wavelet.Synopsis:
		return &waveletCodec, nil
	}
	return nil, fmt.Errorf("synopsis: no codec for %T", s)
}

// codecByName returns the codec whose envelopes carry the type name.
func codecByName(name string) (*codec, error) {
	switch name {
	case histogramType:
		return &histogramCodec, nil
	case waveletType:
		return &waveletCodec, nil
	}
	return nil, fmt.Errorf("synopsis: unknown synopsis type %q", name)
}
