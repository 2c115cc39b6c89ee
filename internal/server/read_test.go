package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/engine"
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
	CodeBadRequest:      http.StatusBadRequest,
	CodeNotFound:        http.StatusNotFound,
	CodePeerUnavailable: http.StatusBadGateway,
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
	if op.Shards != 0 {
		v.Set("shards", fmt.Sprint(op.Shards))
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
// the batch wire cannot say (a parameter that is not a number, a piece
// address) pin the GET's answer instead; a piece's rows are compared
// with the gathered key at the same item in global coordinates. Finally
// all ops go in one batch, which must answer each as it answered alone:
// one failed op fails neither the batch nor its neighbours.
// (cmd/psyn's TestRunQueryMatchesServedBatch holds psyn -query to the
// served bytes.)
func TestReadPathsAgree(t *testing.T) {
	_, ts, src := newFixture(t, Config{C: 0.5})
	const k = 4
	n := src.Domain()
	for _, b := range []BuildRequest{
		{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4},
		{Dataset: "ds", Family: "wavelet", Metric: "SSE", Budget: 6},
		{Dataset: "ds", Family: "histogram", Metric: "SSRE", Budget: 3}, // under the server's c
		{Dataset: "ds", Family: "histogram", Metric: "SSRE", Budget: 3, C: 0.25},
		{Dataset: "ds", Family: "wavelet", Metric: "SAE", Budget: 4, Quantize: 4},
		{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 8, Shards: k},
		{Dataset: "ds", Family: "wavelet", Metric: "SAE", Budget: 8, Shards: k},
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
		"hist":            {Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4},
		"wavelet":         {Dataset: "ds", Family: "wavelet", Metric: "SSE", Budget: 6},
		"default-c":       {Dataset: "ds", Family: "histogram", Metric: "SSRE", Budget: 3},
		"explicit-c":      {Dataset: "ds", Family: "histogram", Metric: "SSRE", Budget: 3, C: 0.25},
		"c-on-plain":      {Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4, C: 7}, // c is dropped from the key
		"quantized":       {Dataset: "ds", Family: "wavelet", Metric: "SAE", Budget: 4, Q: 4},
		"gathered-hist":   {Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 8, Shards: k},
		"gathered-wave":   {Dataset: "ds", Family: "wavelet", Metric: "SAE", Budget: 8, Shards: k},
		"unbuilt":         {Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 99},
		"unbuilt-sharded": {Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 8, Shards: 2},
		"unbuilt-c":       {Dataset: "ds", Family: "histogram", Metric: "SSRE", Budget: 3, C: 0.75},
		"budget-0":        {Dataset: "ds", Family: "histogram", Metric: "SSE"},
		"no-dataset":      {Family: "histogram", Metric: "SSE", Budget: 4},
		"bad-family":      {Dataset: "ds", Family: "sketch", Metric: "SSE", Budget: 4},
		"bad-metric":      {Dataset: "ds", Family: "histogram", Metric: "XXX", Budget: 4},
		"negative-c":      {Dataset: "ds", Family: "histogram", Metric: "SSRE", Budget: 3, C: -1},
		"q-1":             {Dataset: "ds", Family: "wavelet", Metric: "SAE", Budget: 4, Q: 1},
		"q-on-histogram":  {Dataset: "ds", Family: "histogram", Metric: "SAE", Budget: 4, Q: 4},
		"shards-1":        {Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4, Shards: 1},
	}
	for name, bk := range keys {
		for _, i := range []int{0, 17, n - 1, -1, n} { // in domain ×3, out of domain ×2
			mirrored(fmt.Sprintf("%s/estimate(%d)", name, i), query.Op{BatchKey: bk, Op: query.OpEstimate, I: i})
		}
		for _, r := range [][2]int{
			{3, 40}, {17, 17}, {0, n - 1}, {15, 16}, // in domain; the last straddles a shard boundary
			{-5, 1 << 20}, {-3, 5}, {60, 70}, // partially clamped
			{9, 3},                     // inverted
			{100000, 100005}, {-9, -1}, // out of domain
		} {
			mirrored(fmt.Sprintf("%s/rangesum[%d,%d]", name, r[0], r[1]), query.Op{BatchKey: bk, Op: query.OpRangeSum, Lo: r[0], Hi: r[1]})
		}
	}
	// A piece: &shard=s is key syntax the batch wire does not have, so the
	// twin op is the gathered key at the piece's offset (the fixture's
	// 64-item domain cuts into four 16-item pieces for both families).
	bounds := probsyn.ShardBounds(n, k, false)
	for _, name := range []string{"gathered-hist", "gathered-wave"} {
		bk := keys[name]
		base := fmt.Sprintf("dataset=ds&family=%s&metric=%s&budget=8&shards=%d", bk.Family, bk.Metric, k)
		for s := 0; s < k; s++ {
			off, pn := bounds[s], bounds[s+1]-bounds[s]
			for _, i := range []int{0, 7, pn - 1} {
				rows = append(rows, row{name: fmt.Sprintf("%s/piece %d/estimate(%d)", name, s, i), kind: query.OpEstimate,
					get: fmt.Sprintf("%s&shard=%d&i=%d", base, s, i),
					op:  &query.Op{BatchKey: bk, Op: query.OpEstimate, I: off + i}})
			}
			for _, r := range [][4]int{{2, 9, 2, 9}, {5, 5, 5, 5}, {-4, 5, 0, 5}, {11, 99, 11, pn - 1}} { // asked lo, hi; clamped lo, hi
				rows = append(rows, row{name: fmt.Sprintf("%s/piece %d/rangesum[%d,%d]", name, s, r[0], r[1]), kind: query.OpRangeSum,
					get: fmt.Sprintf("%s&shard=%d&lo=%d&hi=%d", base, s, r[0], r[1]),
					op:  &query.Op{BatchKey: bk, Op: query.OpRangeSum, Lo: off + r[2], Hi: off + r[3]}})
			}
		}
	}
	// What only a GET can get wrong: parameters that are not numbers,
	// required ones left out, and piece addresses.
	bad := func(msg string) readAnswer {
		return readAnswer{status: http.StatusBadRequest, code: CodeBadRequest, msg: msg}
	}
	unbuilt := readAnswer{status: http.StatusNotFound, code: CodeNotFound, msg: "no synopsis for ds/histogram/SSE/8#s0of2 (build it first)"}
	const (
		plain    = "dataset=ds&family=histogram&metric=SSE"
		gathered = "dataset=ds&family=histogram&metric=SSE&budget=8&shards=4"
	)
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
		{name: "bad shards", kind: query.OpRangeSum, get: plain + "&budget=8&shards=two&lo=1&hi=2", want: bad(`bad shards "two"`)},
		{name: "negative shards", kind: query.OpEstimate, get: plain + "&budget=8&shards=-2&i=1", want: bad(`bad shards "-2"`)},
		{name: "gathered/missing i", kind: query.OpEstimate, get: gathered, want: bad(`bad i ""`)},
		{name: "gathered/bad lo", kind: query.OpRangeSum, get: gathered + "&lo=a&hi=2", want: bad(`bad lo "a"`)},
		{name: "gathered/missing budget", kind: query.OpRangeSum, get: plain + "&shards=4&lo=1&hi=2", want: bad(`bad budget ""`)},
		{name: "shard without shards", kind: query.OpRangeSum, get: plain + "&budget=4&shard=1&lo=0&hi=3", want: bad("shard=1 needs shards >= 2")},
		{name: "bad shard", kind: query.OpEstimate, get: gathered + "&shard=x&i=1", want: bad(`bad shard "x"`)},
		{name: "negative shard", kind: query.OpEstimate, get: gathered + "&shard=-1&i=1", want: bad(`bad shard "-1"`)},
		{name: "shard beyond shards", kind: query.OpEstimate, get: gathered + "&shard=4&i=1", want: bad("catalog: shard index 4 outside [0, 4)")},
		{name: "piece/estimate out of domain", kind: query.OpEstimate, get: gathered + "&shard=1&i=16", want: bad("item 16 outside domain [0, 16)")},
		{name: "piece/rangesum inverted", kind: query.OpRangeSum, get: gathered + "&shard=1&lo=9&hi=3", want: bad("empty range [9, 3]")},
		{name: "piece/rangesum out of domain", kind: query.OpRangeSum, get: gathered + "&shard=1&lo=16&hi=20", want: bad("range [16, 20] outside domain [0, 16)")},
		{name: "piece/missing lo", kind: query.OpRangeSum, get: gathered + "&shard=1&hi=3", want: bad(`bad lo ""`)},
		// A key nobody built is not_found whichever way it is addressed (the
		// mirrored "unbuilt" rows say the batch agrees).
		{name: "piece/unbuilt", kind: query.OpEstimate, get: plain + "&budget=8&shards=2&shard=0&i=1", want: unbuilt},
		{name: "gathered/unbuilt estimate", kind: query.OpEstimate, get: plain + "&budget=8&shards=2&i=1", want: unbuilt},
		{name: "gathered/unbuilt rangesum", kind: query.OpRangeSum, get: plain + "&budget=8&shards=2&lo=0&hi=9", want: unbuilt},
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
	if values < 100 || failures[CodeBadRequest] < 50 || failures[CodeNotFound] < 30 {
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
		for _, shards := range []string{"", "&shards=2", "&shards=2&shard=0"} {
			got := getRead(t, ts.URL, kind, "dataset=..%2Fevil&family=histogram&metric=SSE&budget=4"+shards+tail)
			if got.status != http.StatusNotFound || got.code != CodeNotFound {
				t.Errorf("%s%s of a traversal dataset name answered %v, want 404 not_found", kind, shards, got)
			}
		}
	}
	s.dsMu.RLock()
	defer s.dsMu.RUnlock()
	if len(s.datasets) != 0 {
		t.Fatalf("reads parsed and cached datasets: %d cached", len(s.datasets))
	}
}

// A replica booted over a catalog directory that holds sharded pieces
// serves their gathered reads with no dataset at all: the boundaries come
// from the pieces.
func TestReplicaGathersWithoutDatasets(t *testing.T) {
	builder, bts, _ := newFixture(t, Config{})
	const k = 4
	if resp, _, bad := postBuild(t, bts, BuildRequest{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 8, Shards: k, Wait: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded build: %d %v", resp.StatusCode, bad)
	}
	cat := catalog.New()
	if _, err := cat.LoadDir(builder.cfg.CatalogDir); err != nil {
		t.Fatal(err)
	}
	replica, err := New(Config{DataDir: t.TempDir(), Catalog: cat, Pool: engine.Serial()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(replica.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := replica.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	})
	bk := query.BatchKey{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 8, Shards: k}
	for _, op := range []query.Op{
		{BatchKey: bk, Op: query.OpRangeSum, Lo: 5, Hi: 40},
		{BatchKey: bk, Op: query.OpRangeSum, Lo: -3, Hi: 1000},
		{BatchKey: bk, Op: query.OpEstimate, I: 47},
	} {
		resp, one, bad := postQuery(t, ts, query.BatchRequest{Ops: []query.Op{op}})
		if resp.StatusCode != http.StatusOK || len(one.Results) != 1 || one.Results[0].Err != nil {
			t.Fatalf("replica batch %+v: %d %v %+v", op, resp.StatusCode, bad, one.Results)
		}
		if got, want := getRead(t, ts.URL, op.Op, getOf(op)), asAnswer(t, one.Results[0]); !sameAnswer(got, want) {
			t.Errorf("replica gathered GET ?%s answered %v, the batch %v", getOf(op), got, want)
		}
		// And both equal what the building node serves.
		if got, want := getRead(t, ts.URL, op.Op, getOf(op)), getRead(t, bts.URL, op.Op, getOf(op)); !sameAnswer(got, want) {
			t.Errorf("replica answered %v, the builder %v", got, want)
		}
	}
}

// FuzzReadParams: no query string panics the GET parser, and every
// request it accepts names — through the one resolver — only catalog keys
// that survive the filename round trip, so a read can never address a
// file the catalog could not have written.
func FuzzReadParams(f *testing.F) {
	for _, seed := range []string{
		"dataset=ds&family=histogram&metric=SSE&budget=8&i=3",
		"dataset=ds&family=wavelet&metric=SAE&budget=8&q=4&shards=4&lo=-5&hi=99",
		"dataset=..%2Fevil&family=histogram&metric=SSRE&budget=3&c=0.25&shards=2&shard=1&i=0",
		"dataset=a--b&family=histogram&metric=SSE-fixed&budget=1&c=NaN&i=0",
		"dataset=d&family=wavelet&metric=SARE&budget=2&c=NaN&q=8&lo=0&hi=1",
		"dataset=d&family=histogram&metric=MARE&budget=2&c=+Inf&shards=9223372036854775807&shard=9223372036854775807&i=1",
		"dataset=%zz&budget=1;i=2&&=&shard=", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		for _, kind := range []string{query.OpEstimate, query.OpRangeSum} {
			op, err := parseRead(raw, kind)
			if err != nil {
				continue
			}
			var named []catalog.Key
			get := func(key catalog.Key) (query.Querier, *query.OpError) {
				named = append(named, key)
				return nil, nil
			}
			if _, _, operr := catalog.Resolve(op.BatchKey, 0.5, get); operr == nil {
				t.Fatalf("%q resolved over an empty source", raw)
			}
			for _, key := range named {
				back, err := catalog.ParseFilename(key.Filename())
				if err != nil || back != key {
					t.Fatalf("%q names key %+v, whose filename %q parses back as %+v (%v)", raw, key, key.Filename(), back, err)
				}
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
