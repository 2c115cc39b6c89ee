package synopsis

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/ptest"
	"probsyn/internal/wavelet"
)

// randomSynopses builds a mixed bag of real synopses — histograms under
// several metrics and wavelets from both builders — over random sources.
func randomSynopses(t *testing.T, rng *rand.Rand) []Synopsis {
	t.Helper()
	var out []Synopsis
	for trial := 0; trial < 6; trial++ {
		n := 4 + rng.Intn(24)
		src := ptest.RandomValuePDF(rng, n, 3)
		for _, k := range []metric.Kind{metric.SSE, metric.SSRE, metric.SAE, metric.MAE} {
			o, err := hist.NewOracle(src, k, metric.Params{C: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			h, err := hist.OptimalPool(o, 1+rng.Intn(n), nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, h)
		}
		syn, _, err := wavelet.BuildSSE(src, 1+rng.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, syn)
		rsyn, _, err := wavelet.BuildRestrictedPool(src, metric.SAE, metric.Params{C: 0.5}, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rsyn)
	}
	return out
}

// domainOf returns the queryable domain of a synopsis for estimate sweeps.
func domainOf(s Synopsis) int {
	switch v := s.(type) {
	case *hist.Histogram:
		return v.N
	case *wavelet.Synopsis:
		return v.N
	}
	return 0
}

// checkSame verifies the decoded synopsis answers every point and range
// query exactly like the original (codecs preserve float64 bits, so exact
// equality is the contract, not a tolerance).
func checkSame(t *testing.T, orig, back Synopsis, codec string) {
	t.Helper()
	if orig.Terms() != back.Terms() {
		t.Fatalf("%s: terms %d != %d", codec, back.Terms(), orig.Terms())
	}
	if orig.ErrorCost() != back.ErrorCost() {
		t.Fatalf("%s: error cost %v != %v", codec, back.ErrorCost(), orig.ErrorCost())
	}
	n := domainOf(orig)
	for i := 0; i < n; i++ {
		if a, b := orig.Estimate(i), back.Estimate(i); a != b {
			t.Fatalf("%s: Estimate(%d) %v != %v", codec, i, b, a)
		}
	}
	for _, q := range [][2]int{{0, n - 1}, {0, 0}, {n / 2, n - 1}, {-3, 2 * n}} {
		if a, b := orig.RangeSum(q[0], q[1]), back.RangeSum(q[0], q[1]); a != b {
			t.Fatalf("%s: RangeSum(%d,%d) %v != %v", codec, q[0], q[1], b, a)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, s := range randomSynopses(t, rng) {
		blob, err := Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("%T: %v", s, err)
		}
		if ot, bt := typeName(t, s), typeName(t, back); ot != bt {
			t.Fatalf("round-trip changed type %s -> %s", ot, bt)
		}
		checkSame(t, s, back, "binary")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, s := range randomSynopses(t, rng) {
		blob, err := MarshalJSON(s)
		if err != nil {
			t.Fatal(err)
		}
		// Through the explicit JSON entry point...
		back, err := UnmarshalJSON(blob)
		if err != nil {
			t.Fatalf("%T: %v", s, err)
		}
		checkSame(t, s, back, "json")
		// ...and through the sniffing entry point.
		back2, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("%T via sniff: %v", s, err)
		}
		checkSame(t, s, back2, "json-sniffed")
	}
}

func typeName(t *testing.T, s Synopsis) string {
	t.Helper()
	name, err := TypeName(s)
	if err != nil {
		t.Fatal(err)
	}
	return name
}

func buildOneOfEach(t testing.TB) (h *hist.Histogram, w *wavelet.Synopsis) {
	t.Helper()
	rng := rand.New(rand.NewSource(93))
	src := ptest.RandomValuePDF(rng, 16, 3)
	o := hist.NewSSEValue(src)
	var err error
	h, err = hist.OptimalPool(o, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err = wavelet.BuildSSE(src, 5)
	if err != nil {
		t.Fatal(err)
	}
	return h, w
}

func TestUnmarshalRejectsCorruptBinary(t *testing.T) {
	h, w := buildOneOfEach(t)
	for name, s := range map[string]Synopsis{"histogram": h, "wavelet": w} {
		blob, err := Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			// Truncation at every prefix length must error, never panic.
			for cut := 0; cut < len(blob); cut++ {
				if _, err := Unmarshal(blob[:cut]); err == nil {
					t.Fatalf("truncation to %d bytes accepted", cut)
				}
			}
			// Any single flipped payload byte must fail the checksum.
			for i := 10; i < len(blob)-4; i += 7 {
				bad := append([]byte(nil), blob...)
				bad[i] ^= 0x40
				if _, err := Unmarshal(bad); err == nil {
					t.Fatalf("bit flip at %d accepted", i)
				}
			}
			// Unknown version.
			bad := append([]byte(nil), blob...)
			bad[4] = 99
			if _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "version") {
				t.Fatalf("bad version: err = %v", err)
			}
			// Unknown type name (re-sign the payload so only the name is bad).
			if _, err := Unmarshal(forgeName(blob, "histogrm")); err == nil || !strings.Contains(err.Error(), "unknown synopsis type") {
				t.Fatalf("unknown type: err = %v", err)
			}
			// Unrecognized envelope entirely.
			if _, err := Unmarshal([]byte("BOGUS_FORMAT")); err == nil {
				t.Fatal("bogus envelope accepted")
			}
			if _, err := Unmarshal(nil); err == nil {
				t.Fatal("empty input accepted")
			}
		})
	}
}

// forgeName rewrites the envelope's type name, keeping everything else.
func forgeName(blob []byte, name string) []byte {
	nameLen := int(blob[5])
	out := append([]byte(nil), blob[:5]...)
	out = append(out, byte(len(name)))
	out = append(out, name...)
	out = append(out, blob[6+nameLen:]...)
	return out
}

func TestUnmarshalRejectsCorruptJSON(t *testing.T) {
	h, _ := buildOneOfEach(t)
	blob, err := MarshalJSON(h)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"not json":        []byte("{nope"),
		"wrong format":    []byte(`{"format":"other","version":1,"type":"histogram","synopsis":{}}`),
		"wrong version":   []byte(`{"format":"probsyn-synopsis","version":9,"type":"histogram","synopsis":{}}`),
		"unknown type":    []byte(`{"format":"probsyn-synopsis","version":1,"type":"nope","synopsis":{}}`),
		"missing body":    []byte(`{"format":"probsyn-synopsis","version":1,"type":"histogram"}`),
		"invalid body":    []byte(`{"format":"probsyn-synopsis","version":1,"type":"histogram","synopsis":{"N":3,"Buckets":[{"Start":1,"End":2}]}}`),
		"body wrong type": bytes.Replace(blob, []byte(`"type":"histogram"`), []byte(`"type":"wavelet"`), 1),
	}
	for name, data := range cases {
		if _, err := UnmarshalJSON(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Decoded binary histograms must also re-validate: a structurally broken
// payload with a correct checksum is still rejected.
func TestBinaryDecodeValidates(t *testing.T) {
	h, _ := buildOneOfEach(t)
	h2 := &hist.Histogram{N: h.N, Buckets: append([]hist.Bucket(nil), h.Buckets...), Cost: h.Cost}
	h2.Buckets[0].Start = 1 // breaks the partition invariant
	payload, err := encodeHistogramBinary(h2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeHistogramBinary(payload); err == nil {
		t.Fatal("invalid histogram payload accepted")
	}
	w := &wavelet.Synopsis{N: 3, Indices: []int{0}, Values: []float64{1}} // N not a power of two
	payload, err = encodeWaveletBinary(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeWaveletBinary(payload); err == nil {
		t.Fatal("invalid wavelet payload accepted")
	}
}

// The wire type names are persistence format: both envelopes record them
// and the catalog reuses them as family names.
func TestTypeNames(t *testing.T) {
	h, w := buildOneOfEach(t)
	for want, s := range map[string]Synopsis{"histogram": h, "wavelet": w} {
		if got := typeName(t, s); got != want {
			t.Errorf("TypeName(%T) = %q, want %q", s, got, want)
		}
		if c, err := codecByName(want); err != nil || c.name != want {
			t.Errorf("codecByName(%q) = %v, %v", want, c, err)
		}
	}
	if _, err := TypeName(nil); err == nil {
		t.Error("TypeName(nil) found a codec")
	}
}
