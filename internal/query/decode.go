package query

import (
	"encoding/json"
	"strconv"
)

// DecodeBatch decodes a JSON batch request into req, reusing req's
// retained capacity. It is semantically equivalent to json.Unmarshal
// into a zeroed request — same accepted inputs, same errors — with two
// read-path properties the stdlib call alone does not give:
//
//   - A hand-rolled scanner handles the canonical wire shape (ASCII
//     strings without escapes, lowercase member names, plain numbers)
//     in one pass with a small per-call string intern table, an order
//     of magnitude faster than reflection and nearly allocation-free.
//     Anything outside that shape — escapes, non-ASCII, case-variant
//     or unknown members, number edge cases — falls back to
//     encoding/json wholesale, so unusual inputs keep stdlib semantics
//     and stdlib error text exactly.
//
//   - Stale ops are zeroed before decoding. encoding/json decodes
//     slice elements in place without clearing fields the JSON omits,
//     so decoding into a pooled request would otherwise leak field
//     values (an old op's i or c) from one request into the next.
//
// Unlike json.Decoder.Decode, trailing garbage after the top-level
// object is an error (json.Unmarshal semantics) — the wire format is
// one object per body.
func DecodeBatch(data []byte, req *BatchRequest) error {
	clear(req.Ops[:cap(req.Ops)])
	req.Ops = req.Ops[:0]
	s := batchScanner{data: data}
	if s.scanBatch(req) {
		return nil
	}
	// Fast path bailed: re-clear whatever it appended and let the
	// stdlib be the arbiter of validity and error wording.
	clear(req.Ops[:cap(req.Ops)])
	req.Ops = req.Ops[:0]
	return json.Unmarshal(data, req)
}

// batchScanner is a single-purpose JSON scanner for the BatchRequest
// wire shape. Every scan method returns false to mean "fall back to
// encoding/json", never to assert invalidity — the fast path only
// commits when it has parsed the entire input.
type batchScanner struct {
	data []byte
	pos  int
	strs []string // per-call intern table: batches repeat key strings heavily
}

func (s *batchScanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

func (s *batchScanner) expect(c byte) bool {
	s.ws()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// peek reports the next non-whitespace byte without consuming it.
func (s *batchScanner) peek() byte {
	s.ws()
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

func (s *batchScanner) scanBatch(req *BatchRequest) bool {
	if !s.expect('{') {
		return false
	}
	if s.peek() == '}' {
		s.pos++
		return s.atEnd()
	}
	key, ok := s.scanStringBytes()
	if !ok || string(key) != "ops" || !s.expect(':') {
		return false
	}
	if !s.scanOps(req) {
		return false
	}
	// Exactly one member on the fast path; a second member (even a
	// duplicate "ops") goes through the stdlib.
	return s.expect('}') && s.atEnd()
}

func (s *batchScanner) atEnd() bool {
	s.ws()
	return s.pos == len(s.data)
}

func (s *batchScanner) scanOps(req *BatchRequest) bool {
	if !s.expect('[') {
		return false
	}
	if s.peek() == ']' {
		s.pos++
		return true
	}
	for {
		var op Op
		if !s.scanOp(&op) {
			return false
		}
		req.Ops = append(req.Ops, op)
		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return true
		default:
			return false
		}
	}
}

func (s *batchScanner) scanOp(op *Op) bool {
	if !s.expect('{') {
		return false
	}
	if s.peek() == '}' {
		s.pos++
		return true
	}
	for {
		key, ok := s.scanStringBytes()
		if !ok || !s.expect(':') {
			return false
		}
		// Exact lowercase member names only: encoding/json also matches
		// case-insensitively, so "Dataset" must take the fallback. A
		// duplicate member overwrites, matching stdlib last-wins.
		switch string(key) {
		case "dataset":
			op.Dataset, ok = s.scanInterned()
		case "family":
			op.Family, ok = s.scanInterned()
		case "metric":
			op.Metric, ok = s.scanInterned()
		case "op":
			op.Op, ok = s.scanInterned()
		case "budget":
			op.Budget, ok = s.scanInt()
		case "c":
			op.C, ok = s.scanFloat()
		case "q":
			op.Q, ok = s.scanInt()
		case "i":
			op.I, ok = s.scanInt()
		case "lo":
			op.Lo, ok = s.scanInt()
		case "hi":
			op.Hi, ok = s.scanInt()
		default:
			return false
		}
		if !ok {
			return false
		}
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return true
		default:
			return false
		}
	}
}

// scanStringBytes scans a plain ASCII string without escapes and
// returns the bytes between the quotes. Escapes, control characters,
// and non-ASCII all punt to the stdlib (which handles \u-sequences and
// invalid-UTF-8 replacement the fast path does not reproduce).
func (s *batchScanner) scanStringBytes() ([]byte, bool) {
	if !s.expect('"') {
		return nil, false
	}
	start := s.pos
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; {
		case c == '"':
			b := s.data[start:s.pos]
			s.pos++
			return b, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		default:
			s.pos++
		}
	}
	return nil, false
}

// scanInterned scans a string value, deduplicating through the per-call
// intern table — family/metric/op values come from tiny closed sets, so
// a 100-op batch allocates a handful of strings, not hundreds. The
// `v == string(b)` comparison does not allocate.
func (s *batchScanner) scanInterned() (string, bool) {
	b, ok := s.scanStringBytes()
	if !ok {
		return "", false
	}
	for _, v := range s.strs {
		if v == string(b) {
			return v, true
		}
	}
	v := string(b)
	if len(s.strs) < 32 {
		s.strs = append(s.strs, v)
	}
	return v, true
}

// scanInt scans a strict JSON integer. Fractions and exponents punt to
// the stdlib, which rejects them for int fields with its own error; so
// do tokens long enough to overflow (stdlib reports out-of-range).
func (s *batchScanner) scanInt() (int, bool) {
	s.ws()
	neg := false
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		neg = true
		s.pos++
	}
	start := s.pos
	for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
		s.pos++
	}
	ndig := s.pos - start
	if ndig == 0 || ndig > 18 || (ndig > 1 && s.data[start] == '0') {
		return 0, false
	}
	if s.pos < len(s.data) {
		switch s.data[s.pos] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	n := 0
	for _, c := range s.data[start:s.pos] {
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// scanFloat scans a JSON number for a float64 field. The token is
// validated against the JSON number grammar before ParseFloat, because
// ParseFloat is laxer than JSON (leading zeros, bare ".5", hex floats).
func (s *batchScanner) scanFloat() (float64, bool) {
	s.ws()
	start := s.pos
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	d0 := s.pos
	for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
		s.pos++
	}
	ndig := s.pos - d0
	if ndig == 0 || (ndig > 1 && s.data[d0] == '0') {
		return 0, false
	}
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		f0 := s.pos
		for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
			s.pos++
		}
		if s.pos == f0 {
			return 0, false
		}
	}
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		e0 := s.pos
		for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
			s.pos++
		}
		if s.pos == e0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(s.data[start:s.pos]), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}
