// The read path. Every read — a GET, each op of a POST /v1/query batch,
// and offline psyn -query — is the same three steps:
//
//	parse    the request into query.Ops (parseRead for a GET's query
//	         string, query.DecodeBatch for a batch body);
//	resolve  each op's key to a querier (catalog.Resolve over
//	         Server.querier, the catalog);
//	evaluate the op against it (query.Eval / query.EvalBatch: the domain
//	         and clamp rules, then the compiled querier).
//
// A GET is a batch of one whose per-op error becomes the HTTP status.
// No read opens a dataset file.
//
// Neither end of a GET goes through reflection or a map. The query string
// is scanned once, by url.ParseQuery's rules, straight into the op
// (nextParam; Server.route reads a routed GET's dataset through the same
// scan); read_test.go keeps the url.ParseQuery parser it replaced as the
// reference FuzzReadParams compares it with. The 200 body is appended
// into pooled scratch with query.AppendFloat and AppendString, to the byte
// what encoding/json writes for EstimateResponse / RangeSumResponse
// (FuzzReadBodies); errors, and every other endpoint, still go through
// writeJSON. What a read allocates is the 16 bytes of setJSON.
package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"probsyn/internal/catalog"
	"probsyn/internal/query"
)

// nextParam cuts the next parameter off the front of a raw query string,
// by url.ParseQuery's rules exactly: pairs are split on '&'; an empty
// pair, a pair holding a ';' and a pair whose name or value is a bad
// escape are skipped; name and value are substrings of the query, and
// only one with a '%' or a '+' in it goes through url.QueryUnescape. ok
// is false once the query holds no further parameter.
func nextParam(raw string) (name, value, rest string, ok bool) {
	for raw != "" {
		// One walk finds the pair's end, its first '=' and whether it needs
		// unescaping or dropping. (strings.Cut + ContainsAny per pair cost
		// more than everything else in the scan.)
		end, eq := len(raw), -1
		escaped, semicolon := false, false
	pair:
		for i := 0; i < len(raw); i++ {
			switch raw[i] {
			case '&':
				end = i
				break pair
			case '=':
				if eq < 0 {
					eq = i
				}
			case '%', '+':
				escaped = true
			case ';':
				semicolon = true
			}
		}
		name, value, rest = raw[:end], "", ""
		if end < len(raw) {
			rest = raw[end+1:]
		}
		raw = rest
		if semicolon || end == 0 {
			continue
		}
		if eq >= 0 {
			name, value = name[:eq], name[eq+1:]
		}
		if escaped {
			var err error
			if name, err = url.QueryUnescape(name); err != nil {
				continue
			}
			if value, err = url.QueryUnescape(value); err != nil {
				continue
			}
		}
		return name, value, rest, true
	}
	return "", "", "", false
}

// queryParam returns the first value of one parameter, "" when the query
// has none: url.Values.Get without the map.
func queryParam(rawQuery, name string) string {
	for n, v, rest, ok := nextParam(rawQuery); ok; n, v, rest, ok = nextParam(rest) {
		if n == name {
			return v
		}
	}
	return ""
}

// parseRead parses a GET read's query string, in one pass, into the op it
// asks: dataset, family, metric, budget and i (estimate) or lo, hi
// (rangesum) are required; c and q are optional key syntax. Of a repeated
// parameter the first occurrence counts; any other parameter is not read.
// The first bad parameter, in the order above, is the error.
func parseRead(rawQuery, kind string) (query.Op, error) {
	type slot struct {
		raw string
		set bool // an empty first occurrence still counts
	}
	var dataset, family, metric, budget, c, q, i, lo, hi slot
	for name, value, rest, ok := nextParam(rawQuery); ok; name, value, rest, ok = nextParam(rest) {
		var s *slot
		switch name {
		case "dataset":
			s = &dataset
		case "family":
			s = &family
		case "metric":
			s = &metric
		case "budget":
			s = &budget
		case "c":
			s = &c
		case "q":
			s = &q
		case "i":
			s = &i
		case "lo":
			s = &lo
		case "hi":
			s = &hi
		}
		if s != nil && !s.set {
			*s = slot{value, true}
		}
	}
	var err error
	num := func(name, raw string, required bool) int {
		if raw == "" && !required {
			return 0
		}
		n, e := strconv.Atoi(raw)
		if e != nil && err == nil {
			err = fmt.Errorf("bad %s %q", name, raw)
		}
		return n
	}
	op := query.Op{Op: kind}
	op.Dataset, op.Family, op.Metric = dataset.raw, family.raw, metric.raw
	op.Budget = num("budget", budget.raw, true)
	if c.raw != "" {
		v, e := strconv.ParseFloat(c.raw, 64)
		if e != nil && err == nil {
			err = fmt.Errorf("bad c %q", c.raw)
		}
		op.C = v
	}
	op.Q = num("q", q.raw, false)
	if kind == query.OpEstimate {
		op.I = num("i", i.raw, true)
	} else {
		op.Lo, op.Hi = num("lo", lo.raw, true), num("hi", hi.raw, true)
	}
	return op, err
}

// statusOf maps a per-op error code to the GET endpoints' HTTP status.
func statusOf(code string) int {
	switch code {
	case CodeNotFound:
		return http.StatusNotFound
	case CodeInternal:
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// bodyPool holds the scratch a read's 200 body is built in. (An array on
// the handler's stack would escape through w.Write and be allocated per
// request.)
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// appendKey appends key as encoding/json writes a catalog.Key.
func appendKey(dst []byte, key catalog.Key) ([]byte, error) {
	dst = append(dst, `{"dataset":`...)
	dst = query.AppendString(dst, key.Dataset)
	dst = append(dst, `,"family":`...)
	dst = query.AppendString(dst, key.Family)
	dst = append(dst, `,"metric":`...)
	dst = query.AppendString(dst, key.Metric)
	dst = append(dst, `,"budget":`...)
	dst = strconv.AppendInt(dst, int64(key.Budget), 10)
	if key.C != 0 {
		dst = append(dst, `,"c":`...)
		var err error
		if dst, err = query.AppendFloat(dst, key.C); err != nil {
			return dst, err
		}
	}
	if key.Q != 0 {
		dst = append(dst, `,"q":`...)
		dst = strconv.AppendInt(dst, int64(key.Q), 10)
	}
	return append(dst, '}'), nil
}

// appendJSON appends the bytes encoding/json writes for e, newline
// included. EstimateResponse and RangeSumResponse stay the documented
// wire types, and FuzzReadBodies holds these two methods to them.
func (e EstimateResponse) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"key":`...)
	dst, err := appendKey(dst, e.Key)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"i":`...)
	dst = strconv.AppendInt(dst, int64(e.I), 10)
	dst = append(dst, `,"estimate":`...)
	if dst, err = query.AppendFloat(dst, e.Estimate); err != nil {
		return dst, err
	}
	return append(dst, "}\n"...), nil
}

func (e RangeSumResponse) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"key":`...)
	dst, err := appendKey(dst, e.Key)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"lo":`...)
	dst = strconv.AppendInt(dst, int64(e.Lo), 10)
	dst = append(dst, `,"hi":`...)
	dst = strconv.AppendInt(dst, int64(e.Hi), 10)
	dst = append(dst, `,"sum":`...)
	if dst, err = query.AppendFloat(dst, e.Sum); err != nil {
		return dst, err
	}
	return append(dst, "}\n"...), nil
}

// handleRead serves GET /v1/estimate and GET /v1/rangesum.
func (s *Server) handleRead(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		op, err := parseRead(r.URL.RawQuery, kind)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
			return
		}
		key, q, operr := catalog.Resolve(op.BatchKey, s.cfg.C, s.querier)
		var res query.OpResult
		if operr == nil {
			res = query.Eval(&op, q)
			operr = res.Err
		}
		if operr != nil {
			writeError(w, statusOf(operr.Code), operr.Code, "%s", operr.Message)
			return
		}
		scratch := bodyPool.Get().(*[]byte)
		defer bodyPool.Put(scratch)
		var body []byte
		if kind == query.OpEstimate {
			body, err = EstimateResponse{Key: key, I: op.I, Estimate: res.Value}.appendJSON((*scratch)[:0])
		} else {
			// Echo the clamped bounds, so the response never claims a sum over
			// more domain than the synopsis covers.
			body, err = RangeSumResponse{Key: key, Lo: max(op.Lo, 0), Hi: min(op.Hi, q.Domain()-1), Sum: res.Value}.appendJSON((*scratch)[:0])
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, "encode the answer for %s: %v", key, err)
			return
		}
		*scratch = body
		setJSON(w)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	}
}

// querier is the server's synopsis source for catalog.Resolve: the
// catalog. A routed GET for another node's dataset never gets here; a
// batch op can, and is told where the dataset lives.
func (s *Server) querier(key catalog.Key) (query.Querier, *query.OpError) {
	if entry, ok := s.cfg.Catalog.Get(key); ok {
		return entry.Querier, nil
	}
	if peer, elsewhere := s.owner(key.Dataset); elsewhere {
		return nil, &query.OpError{Code: CodeNotFound, Message: fmt.Sprintf(
			"no synopsis for %s on this node: dataset %q is owned by peer %s", key, key.Dataset, peer)}
	}
	return nil, nil
}
