package synopsis

import (
	"math"
	"testing"

	"probsyn/internal/hist"
	"probsyn/internal/wavelet"
)

// FuzzUnmarshalSynopsis hammers the envelope decoder with arbitrary
// bytes: the server feeds it untrusted catalog files and request
// payloads, so whatever arrives it must either return an error or a
// structurally valid synopsis — never panic, never accept a corrupted
// payload whose queries then misbehave. Seeds cover both valid
// envelopes and the corrupt-envelope cases the unit tests enumerate
// (truncations, bit flips, forged type names, bogus formats).
func FuzzUnmarshalSynopsis(f *testing.F) {
	h, w := buildOneOfEach(f)
	for _, s := range []Synopsis{h, w} {
		blob, err := Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		// Truncation, payload corruption, forged type name.
		f.Add(blob[:len(blob)/2])
		flipped := append([]byte(nil), blob...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
		f.Add(forgeName(blob, "histogrm"))
		jblob, err := MarshalJSON(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(jblob)
	}
	// Well-formed envelopes (Marshal does not validate) around a number JSON
	// cannot write: a representative, a coefficient, a cost.
	for _, s := range []Synopsis{
		&hist.Histogram{N: 2, Buckets: []hist.Bucket{{Start: 0, End: 1, Rep: math.NaN()}}},
		&hist.Histogram{N: 2, Buckets: []hist.Bucket{{Start: 0, End: 1, Rep: 1}}, Cost: math.Inf(1)},
		&wavelet.Synopsis{N: 2, Indices: []int{0, 1}, Values: []float64{1, math.Inf(-1)}},
		&wavelet.Synopsis{N: 2, Indices: []int{0}, Values: []float64{1}, Cost: math.NaN()},
	} {
		blob, err := Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		if got, err := Unmarshal(blob); err == nil {
			f.Fatalf("decoded a synopsis holding a non-finite number: %+v", got)
		}
		f.Add(blob)
	}
	f.Add([]byte(nil))
	f.Add([]byte("BOGUS_FORMAT"))
	f.Add([]byte("PSYN"))
	f.Add([]byte(`{"format":"probsyn-synopsis","version":1,"type":"histogram","synopsis":{}}`))
	f.Add([]byte(`{"format":"probsyn-synopsis","version":1,"type":"wavelet","synopsis":{"N":3,"Indices":[0],"Values":[1]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Unmarshal(data)
		if err != nil {
			if s != nil {
				t.Fatalf("error %v alongside non-nil synopsis %T", err, s)
			}
			return
		}
		if s == nil {
			t.Fatal("nil synopsis with nil error")
		}
		// A decode that succeeded must have re-validated its structural
		// invariants: the full query surface is exercisable without
		// panicking, and re-marshaling round-trips.
		terms := s.Terms()
		if terms < 0 {
			t.Fatalf("negative Terms %d", terms)
		}
		_ = s.ErrorCost()
		n := domainOf(s)
		for _, i := range []int{0, 1, n / 2, n - 1} {
			_ = s.Estimate(i)
		}
		_ = s.RangeSum(0, n-1)
		_ = s.RangeSum(-5, 3*n+1) // out-of-domain ends clamp
		// Every number it holds is finite, so it has a JSON form: it can be
		// listed, and its answers written.
		if _, err := MarshalJSON(s); err != nil {
			t.Fatalf("decoded synopsis has no JSON form: %v", err)
		}
		blob, err := Marshal(s)
		if err != nil {
			t.Fatalf("re-marshal of decoded synopsis failed: %v", err)
		}
		back, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.Terms() != terms {
			t.Fatalf("round trip changed terms %d -> %d", terms, back.Terms())
		}
	})
}
