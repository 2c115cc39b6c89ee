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
package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"probsyn/internal/catalog"
	"probsyn/internal/query"
)

// parseRead parses a GET read's query string, once, into the op it
// asks: dataset, family, metric, budget and i (estimate) or lo, hi
// (rangesum) are required; c and q are optional key syntax. The first
// bad parameter is the error.
func parseRead(rawQuery, kind string) (query.Op, error) {
	v, _ := url.ParseQuery(rawQuery) // a malformed pair is dropped, as Request.URL.Query drops it
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	num := func(name string, required bool) int {
		raw := v.Get(name)
		if raw == "" && !required {
			return 0
		}
		n, e := strconv.Atoi(raw)
		if e != nil {
			fail("bad %s %q", name, raw)
		}
		return n
	}
	op := query.Op{Op: kind}
	op.Dataset, op.Family, op.Metric = v.Get("dataset"), v.Get("family"), v.Get("metric")
	op.Budget = num("budget", true)
	if raw := v.Get("c"); raw != "" {
		c, e := strconv.ParseFloat(raw, 64)
		if e != nil {
			fail("bad c %q", raw)
		}
		op.C = c
	}
	op.Q = num("q", false)
	if kind == query.OpEstimate {
		op.I = num("i", true)
	} else {
		op.Lo, op.Hi = num("lo", true), num("hi", true)
	}
	return op, err
}

// statusOf maps a per-op error code to the GET endpoints' HTTP status.
func statusOf(code string) int {
	if code == CodeNotFound {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
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
		if kind == query.OpEstimate {
			writeJSON(w, http.StatusOK, EstimateResponse{Key: key, I: op.I, Estimate: res.Value})
			return
		}
		// Echo the clamped bounds, so the response never claims a sum over
		// more domain than the synopsis covers.
		writeJSON(w, http.StatusOK, RangeSumResponse{Key: key, Lo: max(op.Lo, 0), Hi: min(op.Hi, q.Domain()-1), Sum: res.Value})
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
