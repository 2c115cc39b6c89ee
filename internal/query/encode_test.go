package query

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"probsyn/internal/wavelet"
)

// plainWriter hides a buffer's type, so EncodeResponse takes the path any
// io.Writer takes (psyn -query's stdout) and not the in-place one.
type plainWriter struct{ buf *bytes.Buffer }

func (w plainWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// encodeAll encodes resp every way the package offers — in place into a
// bytes.Buffer that already holds bytes, through a plain io.Writer, and
// appended — and holds all three to json.NewEncoder(w).Encode: the same
// bytes, or an error exactly when json gives one and then nothing written.
func encodeAll(t testing.TB, resp *BatchResponse) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(resp)

	inPlace := bytes.NewBufferString("kept")
	var plain bytes.Buffer
	appended, appendErr := appendResponse([]byte("kept"), resp)
	for name, got := range map[string]struct {
		err error
		out string
	}{
		"EncodeResponse(*bytes.Buffer)": {EncodeResponse(inPlace, resp), strings.TrimPrefix(inPlace.String(), "kept")},
		"EncodeResponse(io.Writer)":     {EncodeResponse(plainWriter{&plain}, resp), plain.String()},
		"appendResponse":                {appendErr, strings.TrimPrefix(string(appended), "kept")},
	} {
		if (got.err == nil) != (wantErr == nil) {
			t.Fatalf("%s of %+v says %v, encoding/json says %v", name, resp.Results, got.err, wantErr)
		}
		if got.err != nil && got.out != "" {
			t.Fatalf("%s of %+v failed (%v) and still wrote %q", name, resp.Results, got.err, got.out)
		}
		if got.err == nil && got.out != want.String() {
			t.Fatalf("%s of %+v:\ngot           %q\nencoding/json %q", name, resp.Results, got.out, want.String())
		}
	}
	if !strings.HasPrefix(inPlace.String(), "kept") || !bytes.HasPrefix(appended, []byte("kept")) {
		t.Fatalf("encoding clobbered the bytes before it: %q, %q", inPlace.String(), appended)
	}
}

// The float rule at its edges: zero and negative zero, both sides of the
// 1e-6 and 1e21 format switches, one- and two-digit negative exponents,
// the smallest subnormal and the largest finite number.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 2.5, 1.0 / 3, 123456789.125,
		1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1.25e-100,
		1e20, 123456789012345678901, 1e21, -1e21, 1.7e+300,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat([]byte("x"), f)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%v) = %q (%v), encoding/json writes %q", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := AppendFloat([]byte("x"), f); err == nil || string(got) != "x" {
			t.Errorf("AppendFloat(%v) = %q, %v; want an error and nothing appended", f, got, err)
		}
	}
}

func TestEncodeResponseMatchesEncodingJSON(t *testing.T) {
	odd := &OpError{Code: "not_found<&>", Message: "no \"synopsis\" for caf\u00e9\\\x00\x7f\xff\u2028 (build it first)"}
	for _, resp := range []*BatchResponse{
		{},                      // a nil Results slice encodes as null,
		{Results: []OpResult{}}, // an empty one as []
		{Results: []OpResult{{Value: 2.5}}},
		{Results: []OpResult{{Value: 1e-7}, {Err: &OpError{Code: "bad_request", Message: "item 9 outside domain [0, 8)"}}, {Value: -0.0}}},
		{Results: []OpResult{{Value: 3, Err: odd}, {Err: &OpError{}}, {Value: math.MaxFloat64}}},
		{Results: []OpResult{{Value: 1}, {Value: math.NaN()}}},
		{Results: []OpResult{{Value: math.Inf(-1), Err: odd}}},
	} {
		encodeAll(t, resp)
	}
}

// FuzzEncodeResponse: any float bits and any strings in an error's code
// and message encode as encoding/json encodes them, bytes and error-ness.
func FuzzEncodeResponse(f *testing.F) {
	f.Add(math.Float64bits(2.5), math.Float64bits(1e-7), "not_found", "no synopsis for ds/histogram/SSE/b4 (build it first)", uint8(3))
	f.Add(math.Float64bits(1e21), math.Float64bits(-0.0), "<b>&", "tab\there \"quoted\" back\\slash", uint8(2))
	f.Add(math.Float64bits(math.NaN()), uint64(1), "", "caf\u00e9 \u2028\u2029 \xff\xc0 \x00\x1f\x7f", uint8(9))
	f.Add(math.Float64bits(math.MaxFloat64), math.Float64bits(math.Inf(1)), "internal", "", uint8(0))
	f.Fuzz(func(t *testing.T, a, b uint64, code, message string, shape uint8) {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		err := &OpError{Code: code, Message: message}
		pool := []OpResult{{Value: x}, {Value: y, Err: err}, {Err: err}, {Value: y}}
		resp := &BatchResponse{}
		if shape > 0 {
			resp.Results = []OpResult{}
		}
		for k := 0; k < int(shape%8); k++ {
			resp.Results = append(resp.Results, pool[(int(shape>>3)+k)%len(pool)])
		}
		encodeAll(t, resp)
	})
}

// A response of values and plain-ASCII errors is encoded in place, in the
// spare capacity of the buffer it is handed: encoding/json is not reached
// and nothing is allocated.
func TestEncodeResponseAllocations(t *testing.T) {
	resp := benchResponse()
	var buf bytes.Buffer
	encode := func() {
		buf.Reset()
		if err := EncodeResponse(&buf, resp); err != nil {
			t.Fatal(err)
		}
	}
	encode() // grows the buffer, once
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Fatalf("EncodeResponse into a warm buffer: %.0f allocations, want 0", allocs)
	}
}

// An answer that is not a finite number is an error of the op, whichever
// surface evaluates it: the synopsis's coefficients are finite, their sum
// is not.
func TestEvalNonFiniteAnswerIsInternalError(t *testing.T) {
	q := CompileWavelet(&wavelet.Synopsis{N: 4, Indices: []int{0, 1}, Values: []float64{math.MaxFloat64, math.MaxFloat64}})
	for _, tc := range []struct {
		op   Op
		want float64 // NaN: an internal error
	}{
		{Op{Op: OpEstimate, I: 0}, math.NaN()},
		{Op{Op: OpEstimate, I: 3}, 0},
		{Op{Op: OpRangeSum, Lo: 0, Hi: 1}, math.NaN()},
	} {
		r := Eval(&tc.op, q)
		if math.IsNaN(tc.want) {
			if r.Err == nil || r.Err.Code != "internal" || r.Value != 0 {
				t.Errorf("%+v answered %+v (%+v), want an internal error", tc.op, r, r.Err)
			}
		} else if r.Err != nil || r.Value != tc.want {
			t.Errorf("%+v answered %+v (%+v), want %v", tc.op, r, r.Err, tc.want)
		}
	}
	var resp BatchResponse
	EvalBatch(&BatchRequest{Ops: []Op{{Op: OpEstimate, I: 0}, {Op: OpEstimate, I: 3}}},
		func(BatchKey) (Querier, int, *OpError) { return q, q.Domain(), nil }, &resp)
	encodeAll(t, &resp) // and so every evaluated batch has a JSON form
	if resp.Results[0].Err == nil || resp.Results[1].Err != nil {
		t.Errorf("batch answered %+v", resp.Results)
	}
}
