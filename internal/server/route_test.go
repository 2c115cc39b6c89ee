package server

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// routeCase is one request: method, request target (path and raw query).
type routeCase struct{ method, target string }

// routeCases cover both read paths and one write path under every method
// the mux tells apart, the path spellings it cleans, redirects or unescapes,
// and good, bad and unbuilt queries.
var routeCases = func() []routeCase {
	const (
		good    = "?dataset=ds&family=histogram&metric=SSE&budget=4&i=7"
		goodSum = "?dataset=ds&family=histogram&metric=SSE&budget=4&lo=3&hi=40"
		bad     = "?dataset=ds&family=histogram&metric=SSE&budget=four&i=7"
		unbuilt = "?dataset=ds&family=histogram&metric=SSE&budget=5&i=7"
	)
	var cs []routeCase
	for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut} {
		for _, target := range []string{
			"/v1/estimate" + good, "/v1/estimate" + bad, "/v1/estimate" + unbuilt, "/v1/estimate",
			"/v1/rangesum" + goodSum, "/v1/rangesum" + bad, "/v1/rangesum" + unbuilt, "/v1/rangesum" + good,
			"/v1/build",
			"/v1/%65stimate" + good, // a non-empty RawPath: the mux unescapes it
			"/v1%2Festimate" + good, // Path is /v1/estimate, but one segment to the mux: 404
			"/v1//estimate" + good,  // unclean: the mux redirects
			"/v1/./rangesum" + goodSum,
			"/v1/estimate/" + good, // no route
			"/v1/estimate?",
			"/v1/synopses",
			"/v1/peers",
		} {
			cs = append(cs, routeCase{method, target})
		}
	}
	return cs
}()

// serveRaw parses a request as a server reads it off the wire and records
// h's answer. ok is false for a request line net/http refuses to parse.
func serveRaw(h http.Handler, method, target string) (rec *httptest.ResponseRecorder, ok bool) {
	raw := method + " " + target + " HTTP/1.1\r\nHost: example.com\r\n\r\n"
	req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		return nil, false
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, true
}

// sameRoute requires h to answer method target as mux does: the same
// status, headers (Content-Type, Allow, Location among them) and body. It
// returns the status, 0 for a request net/http refuses to parse.
func sameRoute(t *testing.T, h, mux http.Handler, method, target string) int {
	t.Helper()
	got, ok := serveRaw(h, method, target)
	if !ok {
		return 0
	}
	want, _ := serveRaw(mux, method, target)
	if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s %q: Handler answered %d %v %q, the mux %d %v %q", method, target,
			got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
	}
	return got.Code
}

// newRouteFixture builds the one synopsis the route cases read and
// returns the server's Handler and its bare mux.
func newRouteFixture(t testing.TB) (h, mux http.Handler) {
	s, ts, _ := newFixture(t, Config{})
	if resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4, Wait: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %v", resp.StatusCode, bad)
	}
	return s.Handler(), s.newRoutes().mux
}

// TestHandlerMatchesMux: the exact-route dispatch ahead of the mux changes
// who picks the handler for GET /v1/estimate and /v1/rangesum, not what
// any request is answered: every case gets the bare mux's bytes.
func TestHandlerMatchesMux(t *testing.T) {
	h, mux := newRouteFixture(t)
	statuses := map[int]bool{}
	for _, c := range routeCases {
		statuses[sameRoute(t, h, mux, c.method, c.target)] = true
	}
	// The table reaches every kind of answer the route split could confuse.
	for _, code := range []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusMovedPermanently} {
		if !statuses[code] {
			t.Errorf("no route case answered %d", code)
		}
	}
}

// FuzzReadRoute: Handler answers any method, path and raw query as the
// bare mux does, byte for byte.
func FuzzReadRoute(f *testing.F) {
	for _, c := range routeCases {
		path, query, _ := strings.Cut(c.target, "?")
		f.Add(c.method, path, query)
	}
	f.Add("GET", "/v1/estimate/..", "i=1")
	f.Add("CONNECT", "/v1/estimate", "")
	f.Add("get", "/v1/rangesum", "")
	f.Add("GET", "*", "")
	h, mux := newRouteFixture(f)
	f.Fuzz(func(t *testing.T, method, path, rawQuery string) {
		target := path
		if rawQuery != "" {
			target += "?" + rawQuery
		}
		sameRoute(t, h, mux, method, target)
	})
}

// BenchmarkReadRoute: one point GET through Handler and through the bare
// mux. The difference is what dispatching the two reads on an exact path
// saves each read: the mux's path cleaning and pattern match.
func BenchmarkReadRoute(b *testing.B) {
	h, mux := newRouteFixture(b)
	req := httptest.NewRequest(http.MethodGet, "/v1/estimate?dataset=ds&family=histogram&metric=SSE&budget=4&i=7", nil)
	for _, bc := range []struct {
		name string
		h    http.Handler
	}{{"Handler", h}, {"mux", mux}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var w discardResponse
			for b.Loop() {
				w = discardResponse{}
				bc.h.ServeHTTP(&w, req)
			}
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
		})
	}
}
