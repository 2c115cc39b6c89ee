package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// The response encoder. The bytes a read puts on the wire — a batch's
// {"results":[...]} line, a GET's 200 body — are encoding/json's, to the
// byte: psyn -query and the served response are cmp-identical by contract.
// They are written append-style, without reflection, by the two functions
// below; anything outside the plain shape (a string json would escape) is
// handed to encoding/json itself, so the stdlib stays the arbiter of the
// bytes, as it does for DecodeBatch on the way in. FuzzEncodeResponse holds
// the encoder to json.NewEncoder(w).Encode, bytes and error-ness.

// AppendFloat appends f as encoding/json writes a float64: 'f' format
// unless |f| < 1e-6 or |f| >= 1e21, then 'e' with a one-digit negative
// exponent unpadded ("1e-07" is "1e-7"). A NaN or an infinity has no JSON
// form and is an error, with dst returned unchanged.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("query: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendString appends s as encoding/json writes a string. Printable
// ASCII that json copies through as it is (no quote, backslash, <, > or &)
// is copied between quotes; any other string goes through json.Marshal.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendResponse appends the canonical serialization of a batch response
// to dst: the bytes json.NewEncoder(w).Encode(resp) writes, newline
// included. On error (a non-finite value) dst is returned unchanged.
func appendResponse(dst []byte, resp *BatchResponse) ([]byte, error) {
	if resp.Results == nil {
		return append(dst, "{\"results\":null}\n"...), nil
	}
	out := append(dst, `{"results":[`...)
	for i := range resp.Results {
		r := &resp.Results[i]
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, `{"value":`...)
		var err error
		if out, err = AppendFloat(out, r.Value); err != nil {
			return dst, fmt.Errorf("result %d: %w", i, err)
		}
		if r.Err != nil {
			out = append(out, `,"error":{"code":`...)
			out = AppendString(out, r.Err.Code)
			out = append(out, `,"message":`...)
			out = AppendString(out, r.Err.Message)
			out = append(out, '}')
		}
		out = append(out, '}')
	}
	return append(out, "]}\n"...), nil
}

// EncodeResponse writes the canonical serialization of a batch response:
// compact JSON with a trailing newline, the exact bytes POST /v1/query
// puts on the wire — psyn -query writes the same bytes so the two are
// cmp-identical. Nothing is written on error. Into a *bytes.Buffer the
// line is built in place, in the buffer's spare capacity, so a handler
// that pools its buffer encodes without allocating.
func EncodeResponse(w io.Writer, resp *BatchResponse) error {
	var spare []byte
	if buf, ok := w.(*bytes.Buffer); ok {
		buf.Grow(len(`{"results":[]}`) + 1 + len(resp.Results)*len(`{"value":-1.2345678901234567e-100},`))
		spare = buf.AvailableBuffer()
	}
	line, err := appendResponse(spare, resp)
	if err != nil {
		return err
	}
	_, err = w.Write(line)
	return err
}
