package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/query"
)

// readAnswer is what a read said, whichever surface it came through: the
// HTTP status (for a batch op, the status its error code maps to), the
// error code and message, or the value.
type readAnswer struct {
	status int
	code   string
	msg    string
	value  float64
}

func (a readAnswer) String() string {
	if a.code != "" {
		return fmt.Sprintf("%d %s %q", a.status, a.code, a.msg)
	}
	return fmt.Sprintf("%d %v (bits %#x)", a.status, a.value, math.Float64bits(a.value))
}

func sameAnswer(a, b readAnswer) bool {
	return a.status == b.status && a.code == b.code && a.msg == b.msg &&
		math.Float64bits(a.value) == math.Float64bits(b.value)
}

// The status every per-op error code must surface as on the GET endpoints.
var wantStatus = map[string]int{
	CodeBadRequest: http.StatusBadRequest,
	CodeNotFound:   http.StatusNotFound,
}

// getRead answers one GET /v1/<kind>?<qs>.
func getRead(t *testing.T, base, kind, qs string) readAnswer {
	t.Helper()
	var body struct {
		Estimate *float64  `json:"estimate"`
		Sum      *float64  `json:"sum"`
		Error    *APIError `json:"error"`
	}
	resp := getJSON(t, base+"/v1/"+kind+"?"+qs, &body)
	a := readAnswer{status: resp.StatusCode}
	switch {
	case body.Error != nil:
		a.code, a.msg = body.Error.Code, body.Error.Message
	case kind == query.OpEstimate && body.Estimate != nil:
		a.value = *body.Estimate
	case kind == query.OpRangeSum && body.Sum != nil:
		a.value = *body.Sum
	default:
		t.Fatalf("GET %s?%s: status %d with neither a value nor an error", kind, qs, resp.StatusCode)
	}
	return a
}

// asAnswer converts a batch result to what the same op must say as a GET.
func asAnswer(t *testing.T, r query.OpResult) readAnswer {
	t.Helper()
	if r.Err == nil {
		return readAnswer{status: http.StatusOK, value: r.Value}
	}
	status, ok := wantStatus[r.Err.Code]
	if !ok {
		t.Fatalf("unknown op error code %q", r.Err.Code)
	}
	return readAnswer{status: status, code: r.Err.Code, msg: r.Err.Message}
}

// getOf spells an op as the GET query string that asks the same thing.
func getOf(op query.Op) string {
	v := url.Values{}
	v.Set("dataset", op.Dataset)
	v.Set("family", op.Family)
	v.Set("metric", op.Metric)
	v.Set("budget", fmt.Sprint(op.Budget))
	if op.C != 0 {
		v.Set("c", fmt.Sprint(op.C))
	}
	if op.Q != 0 {
		v.Set("q", fmt.Sprint(op.Q))
	}
	if op.Op == query.OpEstimate {
		v.Set("i", fmt.Sprint(op.I))
	} else {
		v.Set("lo", fmt.Sprint(op.Lo))
		v.Set("hi", fmt.Sprint(op.Hi))
	}
	return v.Encode()
}

// TestReadPathsAgree is the differential table of the read path: every
// row is asked as a GET and as a one-op POST /v1/query, and the two must
// agree on status, error code, message and — by Float64bits — value. Rows
// the batch wire cannot say (a parameter that is not a number) pin the
// GET's answer instead. Finally all ops go in one batch, which must
// answer each as it answered alone: one failed op fails neither the
// batch nor its neighbours. (cmd/psyn's TestRunQueryMatchesServedBatch
// holds psyn -query to the served bytes.)
func TestReadPathsAgree(t *testing.T) {
	_, ts, src := newFixture(t, Config{C: 0.5})
	n := src.Domain()
	for _, b := range []BuildRequest{
		{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4},
		{Dataset: "ds", Family: "wavelet", Metric: "SSE", Budget: 6},
		{Dataset: "ds", Family: "histogram", Metric: "SSRE", Budget: 3}, // under the server's c
		{Dataset: "ds", Family: "histogram", Metric: "SSRE", Budget: 3, C: 0.25},
		{Dataset: "ds", Family: "wavelet", Metric: "SAE", Budget: 4, Quantize: 4},
		{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 8, Shards: 4}, // a key like any other
	} {
		b.Wait = true
		if resp, _, bad := postBuild(t, ts, b); resp.StatusCode != http.StatusOK {
			t.Fatalf("build %+v: %d %v", b, resp.StatusCode, bad)
		}
	}
	type row struct {
		name string
		kind string
		get  string
		op   *query.Op  // the same question on the batch wire; nil when it cannot be said
		want readAnswer // the GET's answer when op is nil
	}
	var rows []row
	mirrored := func(name string, op query.Op) {
		rows = append(rows, row{name: name, kind: op.Op, get: getOf(op), op: &op})
	}
	keys := map[string]query.BatchKey{
		"hist":           {Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4},
		"wavelet":        {Dataset: "ds", Family: "wavelet", Metric: "SSE", Budget: 6},
		"default-c":      {Dataset: "ds", Family: "histogram", Metric: "SSRE", Budget: 3},
		"explicit-c":     {Dataset: "ds", Family: "histogram", Metric: "SSRE", Budget: 3, C: 0.25},
		"c-on-plain":     {Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4, C: 7}, // c is dropped from the key
		"quantized":      {Dataset: "ds", Family: "wavelet", Metric: "SAE", Budget: 4, Q: 4},
		"built-sharded":  {Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 8},
		"unbuilt":        {Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 99},
		"unbuilt-c":      {Dataset: "ds", Family: "histogram", Metric: "SSRE", Budget: 3, C: 0.75},
		"budget-0":       {Dataset: "ds", Family: "histogram", Metric: "SSE"},
		"no-dataset":     {Family: "histogram", Metric: "SSE", Budget: 4},
		"bad-family":     {Dataset: "ds", Family: "sketch", Metric: "SSE", Budget: 4},
		"bad-metric":     {Dataset: "ds", Family: "histogram", Metric: "XXX", Budget: 4},
		"negative-c":     {Dataset: "ds", Family: "histogram", Metric: "SSRE", Budget: 3, C: -1},
		"q-1":            {Dataset: "ds", Family: "wavelet", Metric: "SAE", Budget: 4, Q: 1},
		"q-on-histogram": {Dataset: "ds", Family: "histogram", Metric: "SAE", Budget: 4, Q: 4},
	}
	for name, bk := range keys {
		for _, i := range []int{0, 17, n - 1, -1, n} { // in domain ×3, out of domain ×2
			mirrored(fmt.Sprintf("%s/estimate(%d)", name, i), query.Op{BatchKey: bk, Op: query.OpEstimate, I: i})
		}
		for _, r := range [][2]int{
			{3, 40}, {17, 17}, {0, n - 1}, {15, 16}, // in domain
			{-5, 1 << 20}, {-3, 5}, {60, 70}, // partially clamped
			{9, 3},                     // inverted
			{100000, 100005}, {-9, -1}, // out of domain
		} {
			mirrored(fmt.Sprintf("%s/rangesum[%d,%d]", name, r[0], r[1]), query.Op{BatchKey: bk, Op: query.OpRangeSum, Lo: r[0], Hi: r[1]})
		}
	}
	// What only a GET can get wrong: parameters that are not numbers and
	// required ones left out.
	bad := func(msg string) readAnswer {
		return readAnswer{status: http.StatusBadRequest, code: CodeBadRequest, msg: msg}
	}
	const plain = "dataset=ds&family=histogram&metric=SSE"
	rows = append(rows, []row{
		{name: "missing budget", kind: query.OpEstimate, get: plain + "&i=1", want: bad(`bad budget ""`)},
		{name: "bad budget", kind: query.OpRangeSum, get: plain + "&budget=four&lo=1&hi=2", want: bad(`bad budget "four"`)},
		{name: "bad c", kind: query.OpEstimate, get: plain + "&budget=4&c=half&i=1", want: bad(`bad c "half"`)},
		{name: "bad q", kind: query.OpEstimate, get: plain + "&budget=4&q=4.5&i=1", want: bad(`bad q "4.5"`)},
		{name: "missing i", kind: query.OpEstimate, get: plain + "&budget=4", want: bad(`bad i ""`)},
		{name: "bad i", kind: query.OpEstimate, get: plain + "&budget=4&i=1e3", want: bad(`bad i "1e3"`)},
		{name: "missing lo", kind: query.OpRangeSum, get: plain + "&budget=4&hi=2", want: bad(`bad lo ""`)},
		{name: "missing hi", kind: query.OpRangeSum, get: plain + "&budget=4&lo=2", want: bad(`bad hi ""`)},
		{name: "bad hi", kind: query.OpRangeSum, get: plain + "&budget=4&lo=2&hi=x", want: bad(`bad hi "x"`)},
		// shards and shard are parameters no more: like any unknown one they
		// are not read, so the key a sharded build published is the plain key.
		{name: "shards is not a parameter", kind: query.OpEstimate, get: plain + "&budget=8&shards=two&shard=-1&i=17",
			op: &query.Op{BatchKey: keys["built-sharded"], Op: query.OpEstimate, I: 17}},
	}...)

	var all query.BatchRequest
	var alone []readAnswer
	for _, r := range rows {
		got := getRead(t, ts.URL, r.kind, r.get)
		want := r.want
		if r.op != nil {
			resp, one, bad := postQuery(t, ts, query.BatchRequest{Ops: []query.Op{*r.op}})
			if resp.StatusCode != http.StatusOK || len(one.Results) != 1 {
				t.Fatalf("%s: one-op batch: %d %v", r.name, resp.StatusCode, bad)
			}
			want = asAnswer(t, one.Results[0])
			all.Ops = append(all.Ops, *r.op)
			alone = append(alone, want)
		}
		if !sameAnswer(got, want) {
			t.Errorf("%s: GET ?%s answered %v, want %v", r.name, r.get, got, want)
		}
	}
	resp, whole, badBody := postQuery(t, ts, all)
	if resp.StatusCode != http.StatusOK || len(whole.Results) != len(alone) {
		t.Fatalf("whole batch: %d, %d results for %d ops: %v", resp.StatusCode, len(whole.Results), len(alone), badBody)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	values, failures := 0, map[string]int{}
	for i, r := range whole.Results {
		if got := asAnswer(t, r); !sameAnswer(got, alone[i]) {
			t.Errorf("op %d %+v: in the batch %v, alone %v", i, all.Ops[i], got, alone[i])
		}
		if r.Err == nil {
			values++
		} else {
			failures[r.Err.Code]++
		}
	}
	// The table must not be agreeing about errors only.
	if values < 70 || failures[CodeBadRequest] < 50 || failures[CodeNotFound] < 30 {
		t.Fatalf("table too thin: %d values, failures %v", values, failures)
	}
}

// No read opens a dataset file. A dataset name that walks out of the data
// directory is just a key nobody built: nothing is parsed, nothing cached.
func TestReadsNeverOpenDatasets(t *testing.T) {
	s, ts, src := newFixture(t, Config{})
	// Plant a dataset where "../evil" resolves from the data directory.
	f, err := os.Create(filepath.Join(filepath.Dir(s.cfg.DataDir), "evil.pd"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Remove(f.Name()) })
	if err := probsyn.WriteDataset(f, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for kind, tail := range map[string]string{query.OpRangeSum: "&lo=0&hi=9", query.OpEstimate: "&i=3"} {
		got := getRead(t, ts.URL, kind, "dataset=..%2Fevil&family=histogram&metric=SSE&budget=4"+tail)
		if got.status != http.StatusNotFound || got.code != CodeNotFound {
			t.Errorf("%s of a traversal dataset name answered %v, want 404 not_found", kind, got)
		}
	}
	s.dsMu.RLock()
	defer s.dsMu.RUnlock()
	if len(s.datasets) != 0 {
		t.Fatalf("reads parsed and cached datasets: %d cached", len(s.datasets))
	}
}

// FuzzReadParams: no query string panics the GET parser, and every
// request it accepts names — through the one resolver — only catalog keys
// that survive the filename round trip, so a read can never address a
// file the catalog could not have written.
func FuzzReadParams(f *testing.F) {
	for _, seed := range []string{
		"dataset=ds&family=histogram&metric=SSE&budget=8&i=3",
		"dataset=ds&family=wavelet&metric=SAE&budget=8&q=4&lo=-5&hi=99",
		"dataset=..%2Fevil&family=histogram&metric=SSRE&budget=3&c=0.25&i=0",
		"dataset=a--b&family=histogram&metric=SSE-fixed&budget=1&c=NaN&i=0",
		"dataset=d&family=wavelet&metric=SARE&budget=2&c=NaN&q=8&lo=0&hi=1",
		"dataset=d&family=histogram&metric=MARE&budget=2&c=+Inf&q=9223372036854775807&i=1",
		"dataset=%zz&budget=1;i=2&&=&q=", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		for _, kind := range []string{query.OpEstimate, query.OpRangeSum} {
			op, err := parseRead(raw, kind)
			if err != nil {
				continue
			}
			get := func(key catalog.Key) (query.Querier, *query.OpError) {
				back, err := catalog.ParseFilename(key.Filename())
				if err != nil || back != key {
					t.Fatalf("%q names key %+v, whose filename %q parses back as %+v (%v)", raw, key, key.Filename(), back, err)
				}
				return nil, nil
			}
			if _, _, operr := catalog.Resolve(op.BatchKey, 0.5, get); operr == nil {
				t.Fatalf("%q resolved over an empty source", raw)
			}
		}
	})
}

// A GET read parses its query string once: 11 (estimate) and 12
// (rangesum) allocations a request by this harness, where every further
// url.ParseQuery of the same string would add seven or eight.
func TestReadGETAllocations(t *testing.T) {
	s, ts, _ := newFixture(t, Config{})
	if resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4, Wait: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %v", resp.StatusCode, bad)
	}
	h := s.Handler()
	const limit = 18
	for _, target := range []string{
		"/v1/estimate?dataset=ds&family=histogram&metric=SSE&budget=4&i=7",
		"/v1/rangesum?dataset=ds&family=histogram&metric=SSE&budget=4&lo=3&hi=40",
	} {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		var w discardResponse
		allocs := testing.AllocsPerRun(200, func() {
			w = discardResponse{}
			h.ServeHTTP(&w, req)
		})
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", target, w.status)
		}
		if allocs > limit {
			t.Errorf("%s: %.0f allocations per request, want at most %d", target, allocs, limit)
		}
	}
}

// discardResponse is a ResponseWriter that keeps the status and nothing
// else, so AllocsPerRun counts the handler and not a recorder.
type discardResponse struct {
	h      http.Header
	status int
}

func (w *discardResponse) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponse) WriteHeader(status int)      { w.status = status }
