package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/query"
	"probsyn/internal/wavelet"
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
	CodeInternal:   http.StatusInternalServerError,
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

// parseReadReference is the parser parseRead replaced, kept as its
// reference: one url.ParseQuery into a map, then a Values.Get per
// parameter.
func parseReadReference(rawQuery, kind string) (query.Op, error) {
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

// sameOp is a == b with c compared by bits (the parser hands c=NaN on).
func sameOp(a, b query.Op) bool {
	ac, bc := a.C, b.C
	a.C, b.C = 0, 0
	return a == b && math.Float64bits(ac) == math.Float64bits(bc)
}

// readParamSeeds are query strings that take every branch of the scan.
var readParamSeeds = []string{
	"dataset=ds&family=histogram&metric=SSE&budget=8&i=3",
	"dataset=ds&family=wavelet&metric=SAE&budget=8&q=4&lo=-5&hi=99",
	"dataset=..%2Fevil&family=histogram&metric=SSRE&budget=3&c=0.25&i=0",
	"dataset=a--b&family=histogram&metric=SSE-fixed&budget=1&c=NaN&i=0",
	"dataset=d&family=wavelet&metric=SARE&budget=2&c=NaN&q=8&lo=0&hi=1",
	"dataset=d&family=histogram&metric=MARE&budget=2&c=+Inf&q=9223372036854775807&i=1",
	"dataset=%zz&budget=1;i=2&&=&q=", "",
	"dataset=&dataset=second&d%61taset=third&budget=1&budget=2&i=%31&i=x",
	"dataset=a;b&dataset=kept&family=%zz&family=wavelet&metric=S%53E&budget=+4&i=4%",
	"dataset=a+b%20c&=empty&noequals&lo==1&hi=2=3&budget=99999999999999999999",
	"&&dataset&family=&metric==&i=1&lo=2&hi=3&budget=0x10&c=1e400&q=-0",
	"dataset=-&family=histogram&metric=SAE&budget=1&i=0", // a name that runs into the filename separator
}

// FuzzReadParams: the GET parser answers every query string as the
// url.ParseQuery parser it replaced does — the same op and, when it
// refuses, the same words — for both kinds; and every request it accepts
// names, through the one resolver, only catalog keys that survive the
// filename round trip, so a read can never address a file the catalog
// could not have written.
func FuzzReadParams(f *testing.F) {
	for _, seed := range readParamSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		for _, kind := range []string{query.OpEstimate, query.OpRangeSum} {
			op, err := parseRead(raw, kind)
			want, wantErr := parseReadReference(raw, kind)
			if !sameOp(op, want) || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s of %q parsed as %+v (%v), the url.ParseQuery reference says %+v (%v)", kind, raw, op, err, want, wantErr)
			}
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

// Every spelling url.ParseQuery treats specially names the same dataset
// to parseRead as to its reference: the first value of the first
// well-formed "dataset" pair, after unescaping.
func TestParseReadDatasetSpellings(t *testing.T) {
	const x, y, spaced = "7-x", "3-y", "5 spaced"
	for _, row := range []struct {
		name, query, dataset string
	}{
		{"plain", "dataset=" + x, x},
		{"another name", "dataset=" + y, y},
		{"none", "family=histogram", ""},
		{"first of two", "dataset=" + x + "&dataset=" + y, x},
		{"first of two, reversed", "dataset=" + y + "&dataset=" + x, y},
		{"empty first", "dataset=&dataset=" + x, ""},
		{"escaped name", "d%61taset=" + x + "&dataset=" + y, x},
		{"escaped value", "dataset=" + strings.ReplaceAll(x, "-", "%2D"), x},
		{"semicolon pair dropped", "dataset=" + y + ";x&dataset=" + x, x},
		{"bad escape dropped", "dataset=%zz" + y + "&dataset=" + x, x},
		{"bad escape in another pair", "i=%&dataset=" + x, x},
		{"plus is a space", "dataset=" + strings.ReplaceAll(spaced, " ", "+"), spaced},
		{"no value", "dataset&dataset=" + x, ""},
	} {
		op, _ := parseRead(row.query, query.OpEstimate)
		ref, _ := parseReadReference(row.query, query.OpEstimate)
		if op.Dataset != row.dataset || ref.Dataset != row.dataset {
			t.Errorf("%s: ?%s names dataset %q to parseRead, %q to its reference; want %q",
				row.name, row.query, op.Dataset, ref.Dataset, row.dataset)
		}
	}
}

// overflowing catalogs a wavelet synopsis whose every coefficient is
// finite and whose sums are not: two coefficients near MaxFloat64 on item
// 0's path.
func overflowing(t *testing.T, s *Server) query.BatchKey {
	t.Helper()
	key, err := catalog.NewKey("huge", catalog.FamilyWavelet, "SSE", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	syn := &wavelet.Synopsis{N: 4, Indices: []int{0, 1}, Values: []float64{math.MaxFloat64, math.MaxFloat64}}
	if err := catalog.Publish("", s.cfg.Catalog, key, syn); err != nil {
		t.Fatal(err)
	}
	return query.BatchKey{Dataset: key.Dataset, Family: key.Family, Metric: key.Metric, Budget: key.Budget}
}

// An answer that is not a finite number has no JSON form. It used to be a
// 200 with an empty body on all three read endpoints; it is a 500 with the
// typed error on the GETs and a per-op error in a batch, whose other ops
// answer.
func TestNonFiniteAnswerIsAnError(t *testing.T) {
	s, ts, _ := newFixture(t, Config{})
	bk := overflowing(t, s)
	const qs = "dataset=huge&family=wavelet&metric=SSE&budget=2"
	for kind, tail := range map[string]string{query.OpEstimate: "&i=0", query.OpRangeSum: "&lo=0&hi=1"} {
		got := getRead(t, ts.URL, kind, qs+tail)
		if got.status != http.StatusInternalServerError || got.code != CodeInternal || !strings.Contains(got.msg, "not a finite number") {
			t.Errorf("%s over an overflowing synopsis answered %v, want 500 internal", kind, got)
		}
	}
	if got := getRead(t, ts.URL, query.OpEstimate, qs+"&i=2"); got.status != http.StatusOK || got.value != 0 {
		t.Errorf("a finite estimate over the same synopsis answered %v, want 200 0", got) // +Max then -Max
	}
	resp, batch, bad := postQuery(t, ts, query.BatchRequest{Ops: []query.Op{
		{BatchKey: bk, Op: query.OpEstimate, I: 0},
		{BatchKey: bk, Op: query.OpEstimate, I: 2},
		{BatchKey: bk, Op: query.OpRangeSum, Lo: 0, Hi: 3},
	}})
	if resp.StatusCode != http.StatusOK || len(batch.Results) != 3 {
		t.Fatalf("batch: %d %+v %+v", resp.StatusCode, batch, bad)
	}
	for i, wantErr := range []bool{true, false, true} {
		if r := batch.Results[i]; (r.Err != nil) != wantErr || (wantErr && (r.Err.Code != CodeInternal || r.Value != 0)) {
			t.Errorf("batch op %d answered %+v (error %+v), want an internal error: %v", i, r, r.Err, wantErr)
		}
	}
}

// A GET read with plain parameters allocates once, the 16-byte value slice
// of its Content-Type header: no url.Values map, no reflective encoder
// (encoding/json is not reached), no body buffer. By this harness that is
// three (discardResponse makes a header map per request, two allocations),
// and the limit is one more: under the race detector sync.Pool drops one
// Put in four. An escaped parameter adds the string url.QueryUnescape
// makes. The handlers before the one-pass scan measured 11 and 12. The
// scan alone (parseRead over the same query string) makes that one string
// and nothing else.
func TestReadGETAllocations(t *testing.T) {
	s, ts, _ := newFixture(t, Config{})
	if resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4, Wait: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %v", resp.StatusCode, bad)
	}
	h := s.Handler()
	for _, tc := range []struct {
		target string
		limit  float64
		parse  float64
	}{
		{"/v1/estimate?dataset=ds&family=histogram&metric=SSE&budget=4&i=7", 4, 0},
		{"/v1/rangesum?dataset=ds&family=histogram&metric=SSE&budget=4&lo=3&hi=40", 4, 0},
		{"/v1/rangesum?dataset=d%73&family=histogram&metric=SSE&budget=4&lo=3&hi=40&shards=2", 5, 1},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.target, nil)
		kind := strings.TrimPrefix(req.URL.Path, "/v1/")
		if allocs := testing.AllocsPerRun(200, func() { parseRead(req.URL.RawQuery, kind) }); allocs != tc.parse {
			t.Errorf("%s: parseRead makes %.0f allocations, want %.0f", tc.target, allocs, tc.parse)
		}
		var w discardResponse
		allocs := testing.AllocsPerRun(200, func() {
			w = discardResponse{}
			h.ServeHTTP(&w, req)
		})
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", tc.target, w.status)
		}
		if allocs > tc.limit {
			t.Errorf("%s: %.0f allocations per request, want at most %.0f", tc.target, allocs, tc.limit)
		}
	}
}

// BenchmarkParseRead: the one-pass scan of a point read's query string.
// It allocates nothing, which TestReadGETAllocations pins.
func BenchmarkParseRead(b *testing.B) {
	const raw = "dataset=sensor-a&family=histogram&metric=SSE&budget=16&lo=117&hi=498"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parseRead(raw, query.OpRangeSum); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzReadBodies: the two GET bodies the handler appends are the bytes
// encoding/json writes for the documented wire types, whatever the key
// holds (names JSON escapes, HTML, invalid UTF-8) and whatever the numbers
// are; and where json refuses (a number that is not finite) so do they.
func FuzzReadBodies(f *testing.F) {
	// The int seeds are ones every GOARCH's int holds: the extremes through
	// math.MaxInt/MinInt, and 2^40-1 where int is 64 bits (255 where it is 32).
	f.Add("ds", "histogram", "SSE", 4, 0.0, 0, 7, 40, math.Float64bits(1.5))
	f.Add("a\"b\\c", "wavelet", "SSRE", 1, 0.25, 8, -3, math.MaxInt>>23, math.Float64bits(1e-7))
	f.Add("<script>&amp;", "w\x00\x1f\x7f", "caf\u00e9 \u2028", -1, -0.0, -2, 0, 0, math.Float64bits(1e21))
	f.Add("bad\xff\xfeutf8", "", "\t\n", math.MaxInt, 5e-324, 1, math.MinInt, 1<<30, math.Float64bits(math.MaxFloat64))
	f.Add("d", "f", "m", 2, math.Inf(1), 0, 1, 2, math.Float64bits(math.NaN()))
	f.Fuzz(func(t *testing.T, dataset, family, metric string, budget int, c float64, q, lo, hi int, bits uint64) {
		key := catalog.Key{Dataset: dataset, Family: family, Metric: metric, Budget: budget, C: c, Q: q}
		v := math.Float64frombits(bits)
		est := EstimateResponse{Key: key, I: hi, Estimate: v}
		sum := RangeSumResponse{Key: key, Lo: lo, Hi: hi, Sum: v}
		for _, body := range []struct {
			wire   any
			append func([]byte) ([]byte, error)
		}{{est, est.appendJSON}, {sum, sum.appendJSON}} {
			var want bytes.Buffer
			wantErr := json.NewEncoder(&want).Encode(body.wire)
			got, err := body.append([]byte("prefix"))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%+v: appendJSON says %v, encoding/json says %v", body.wire, err, wantErr)
			}
			if err == nil && string(got) != "prefix"+want.String() {
				t.Fatalf("%+v:\nappendJSON    %q\nencoding/json %q", body.wire, got[len("prefix"):], want.String())
			}
		}
	})
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
