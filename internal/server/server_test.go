package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/gen"
	"probsyn/internal/synopsis"
)

// newFixture writes a small dataset under a data dir and returns a
// running server (with catalog persistence), its HTTP test wrapper, and
// the parsed source for offline reference builds.
func newFixture(t testing.TB, cfg Config) (*Server, *httptest.Server, probsyn.Source) {
	t.Helper()
	dataDir := t.TempDir()
	src := gen.MystiQLinkage(rand.New(rand.NewSource(7)), gen.DefaultMystiQ(64))
	f, err := os.Create(filepath.Join(dataDir, "ds.pd"))
	if err != nil {
		t.Fatal(err)
	}
	if err := probsyn.WriteDataset(f, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.DataDir = dataDir
	if cfg.Catalog == nil {
		cfg.Catalog = catalog.New()
	}
	if cfg.Pool == nil {
		cfg.Pool = engine.New(engine.Options{Workers: 2})
	}
	if cfg.CatalogDir == "" {
		cfg.CatalogDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	})
	return s, ts, src
}

func postBuild(t testing.TB, ts *httptest.Server, req BuildRequest) (*http.Response, BuildResponse, ErrorBody) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok BuildResponse
	var bad ErrorBody
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatal(err)
		}
	} else if err := json.Unmarshal(raw, &bad); err != nil {
		t.Fatal(err)
	}
	return resp, ok, bad
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp
}

// The acceptance round trip: the server builds both families through the
// shared pool and serves estimates exactly equal to offline Build
// results, and the persisted catalog file is byte-identical to the
// offline envelope (replica byte-interchangeability).
func TestServerRoundTripMatchesOfflineBuilds(t *testing.T) {
	catDir := t.TempDir()
	s, ts, src := newFixture(t, Config{CatalogDir: catDir, C: 0.5})
	cases := []struct {
		family, metric string
		budget         int
		offline        []probsyn.BuildOption
	}{
		{catalog.FamilyHistogram, "SSE", 8, nil},
		{catalog.FamilyWavelet, "SAE", 8, []probsyn.BuildOption{probsyn.WithWavelet()}},
	}
	for _, tc := range cases {
		resp, ok, bad := postBuild(t, ts, BuildRequest{Dataset: "ds", Family: tc.family, Metric: tc.metric, Budget: tc.budget, Wait: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s build: status %d, error %+v", tc.family, resp.StatusCode, bad)
		}
		if ok.Status != "built" {
			t.Fatalf("%s build status %q, want built", tc.family, ok.Status)
		}

		opts := append([]probsyn.BuildOption{probsyn.WithParams(probsyn.Params{C: 0.5})}, tc.offline...)
		m, err := probsyn.ParseMetric(tc.metric)
		if err != nil {
			t.Fatal(err)
		}
		want, err := probsyn.Build(src, m, tc.budget, opts...)
		if err != nil {
			t.Fatal(err)
		}
		base := fmt.Sprintf("%s/v1/estimate?dataset=ds&family=%s&metric=%s&budget=%d", ts.URL, tc.family, tc.metric, tc.budget)
		for i := 0; i < src.Domain(); i += 7 {
			var er EstimateResponse
			if resp := getJSON(t, fmt.Sprintf("%s&i=%d", base, i), &er); resp.StatusCode != http.StatusOK {
				t.Fatalf("estimate status %d", resp.StatusCode)
			}
			if er.Estimate != want.Estimate(i) {
				t.Fatalf("%s: served Estimate(%d) = %v, offline %v", tc.family, i, er.Estimate, want.Estimate(i))
			}
		}
		var rr RangeSumResponse
		rurl := fmt.Sprintf("%s/v1/rangesum?dataset=ds&family=%s&metric=%s&budget=%d&lo=3&hi=40", ts.URL, tc.family, tc.metric, tc.budget)
		if resp := getJSON(t, rurl, &rr); resp.StatusCode != http.StatusOK {
			t.Fatalf("rangesum status %d", resp.StatusCode)
		}
		if want := want.RangeSum(3, 40); rr.Sum != want {
			t.Fatalf("%s: served RangeSum = %v, offline %v", tc.family, rr.Sum, want)
		}
		// A partially out-of-domain range is clamped AND echoed clamped,
		// so the response never claims coverage beyond the domain.
		curl := fmt.Sprintf("%s/v1/rangesum?dataset=ds&family=%s&metric=%s&budget=%d&lo=-7&hi=1000000", ts.URL, tc.family, tc.metric, tc.budget)
		var rc RangeSumResponse
		if resp := getJSON(t, curl, &rc); resp.StatusCode != http.StatusOK {
			t.Fatalf("clamped rangesum status %d", resp.StatusCode)
		}
		if n := want.Domain(); rc.Lo != 0 || rc.Hi != n-1 {
			t.Fatalf("%s: clamped range echoed as [%d, %d], want [0, %d]", tc.family, rc.Lo, rc.Hi, n-1)
		}

		// The persisted catalog file must be byte-identical to the
		// offline envelope of the same synopsis.
		key, err := catalog.NewKey("ds", tc.family, tc.metric, tc.budget, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		onDisk, err := os.ReadFile(filepath.Join(catDir, key.Filename()))
		if err != nil {
			t.Fatal(err)
		}
		offline, err := synopsis.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, offline) {
			t.Fatalf("%s: persisted envelope differs from offline bytes (%d vs %d bytes)", tc.family, len(onDisk), len(offline))
		}
	}

	// Listing reports both synopses.
	var list ListResponse
	if resp := getJSON(t, ts.URL+"/v1/synopses", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("synopses status %d", resp.StatusCode)
	}
	if len(list.Synopses) != 2 {
		t.Fatalf("listed %d synopses, want 2", len(list.Synopses))
	}
	for _, info := range list.Synopses {
		if info.Terms <= 0 || info.Bytes <= 0 {
			t.Fatalf("listing entry %+v not populated", info)
		}
	}

	// A rebuild of an existing key answers "ready" without re-queueing.
	resp, ok, _ := postBuild(t, ts, BuildRequest{Dataset: "ds", Family: catalog.FamilyHistogram, Metric: "SSE", Budget: 8})
	if resp.StatusCode != http.StatusOK || ok.Status != "ready" {
		t.Fatalf("rebuild: status %d %q, want 200 ready", resp.StatusCode, ok.Status)
	}
	_ = s
}

// Concurrent build requests must be admission-controlled by the shared
// pool: with MaxBuilds=2, the pool's high-water mark of in-flight builds
// never exceeds 2 however many requests arrive.
func TestConcurrentBuildsBoundedByAdmissionControl(t *testing.T) {
	pool := engine.New(engine.Options{Workers: 2, MaxBuilds: 2})
	_, ts, _ := newFixture(t, Config{Pool: pool, QueueDepth: 32, C: 0.5})
	var wg sync.WaitGroup
	for b := 2; b <= 9; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			resp, ok, bad := postBuild(t, ts, BuildRequest{Dataset: "ds", Family: catalog.FamilyHistogram, Metric: "SSRE", Budget: b, Wait: true})
			if resp.StatusCode != http.StatusOK || ok.Status != "built" {
				t.Errorf("budget %d: status %d %+v", b, resp.StatusCode, bad)
			}
		}(b)
	}
	wg.Wait()
	if peak := pool.PeakInFlight(); peak < 1 || peak > 2 {
		t.Fatalf("peak in-flight builds %d, want in [1, 2]", peak)
	}
	if pool.InFlight() != 0 {
		t.Fatalf("in-flight builds %d after completion", pool.InFlight())
	}
}

// The build queue is a bounded FIFO: when the one worker is blocked on
// admission and the queue is at depth, the next build is rejected with
// queue_full — requests do not pile up unboundedly.
func TestBuildQueueBounded(t *testing.T) {
	pool := engine.New(engine.Options{Workers: 1, MaxBuilds: 1})
	_, ts, _ := newFixture(t, Config{Pool: pool, QueueDepth: 1, C: 0.5})

	// Hold the only build token: the worker's first job blocks inside
	// probsyn.Build waiting for admission.
	release, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	req := func(b int) BuildRequest {
		return BuildRequest{Dataset: "ds", Family: catalog.FamilyHistogram, Metric: "SSE", Budget: b}
	}
	if resp, ok, _ := postBuild(t, ts, req(2)); resp.StatusCode != http.StatusAccepted || ok.Status != "queued" {
		t.Fatalf("first build: status %d %q", resp.StatusCode, ok.Status)
	}
	// Wait for the worker to dequeue job 1 (blocked on the token), then
	// fill the queue with job 2; job 3 must be rejected.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _, bad := postBuild(t, ts, req(3))
		if resp.StatusCode == http.StatusAccepted {
			break // job 2 fit: job 1 has been dequeued by the worker
		}
		if bad.Error.Code != CodeQueueFull {
			t.Fatalf("unexpected error %+v", bad)
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the first job")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, _, bad := postBuild(t, ts, req(4))
	if resp.StatusCode != http.StatusServiceUnavailable || bad.Error.Code != CodeQueueFull {
		t.Fatalf("overflow build: status %d, error %+v, want queue_full", resp.StatusCode, bad)
	}
	release() // unblock; Cleanup's Shutdown drains jobs 1 and 2
}

// Relative-error synopses are keyed by their sanity constant: a build
// with an explicit c lands under that c, is served only when the lookup
// carries the same c (explicitly or via the server default), and a
// different c is a distinct synopsis — never served interchangeably.
func TestRelativeMetricKeyedBySanityConstant(t *testing.T) {
	cat := catalog.New()
	_, ts, src := newFixture(t, Config{Catalog: cat, C: 0.5})
	for _, c := range []float64{0.5, 1.0} {
		resp, ok, bad := postBuild(t, ts, BuildRequest{Dataset: "ds", Family: catalog.FamilyHistogram, Metric: "SSRE", Budget: 4, C: c, Wait: true})
		if resp.StatusCode != http.StatusOK || ok.Status != "built" {
			t.Fatalf("c=%g build: status %d %+v", c, resp.StatusCode, bad)
		}
		if ok.Key.C != c {
			t.Fatalf("c=%g build keyed at C=%g", c, ok.Key.C)
		}
	}
	if cat.Len() != 2 {
		t.Fatalf("catalog has %d entries, want one per sanity constant", cat.Len())
	}
	estimate := func(query string) (int, float64) {
		t.Helper()
		var er EstimateResponse
		resp := getJSON(t, ts.URL+"/v1/estimate?dataset=ds&family=histogram&metric=SSRE&budget=4&i=2"+query, &er)
		return resp.StatusCode, er.Estimate
	}
	sDefault, eDefault := estimate("") // server default c=0.5
	s05, e05 := estimate("&c=0.5")
	s10, e10 := estimate("&c=1.0")
	if sDefault != http.StatusOK || s05 != http.StatusOK || s10 != http.StatusOK {
		t.Fatalf("estimate statuses %d/%d/%d, want all 200", sDefault, s05, s10)
	}
	if eDefault != e05 {
		t.Fatalf("default-c estimate %v != explicit c=0.5 estimate %v", eDefault, e05)
	}
	for _, c := range []float64{0.5, 1.0} {
		want, err := probsyn.Build(src, probsyn.SSRE, 4, probsyn.WithParams(probsyn.Params{C: c}))
		if err != nil {
			t.Fatal(err)
		}
		got := e05
		if c == 1.0 {
			got = e10
		}
		if got != want.Estimate(2) {
			t.Fatalf("c=%g: served %v, offline %v", c, got, want.Estimate(2))
		}
	}
	if status, _ := estimate("&c=2.0"); status != http.StatusNotFound {
		t.Fatalf("estimate under unbuilt c returned %d, want 404", status)
	}
}

// Re-POSTing an uncataloged key while its build is queued or running
// must attach to the in-flight job, not enqueue duplicate DPs: with a
// depth-1 queue every re-POST still answers "queued", and exactly one
// catalog entry results.
func TestDuplicateBuildRequestsCoalesce(t *testing.T) {
	pool := engine.New(engine.Options{Workers: 1, MaxBuilds: 1})
	cat := catalog.New()
	_, ts, _ := newFixture(t, Config{Pool: pool, Catalog: cat, QueueDepth: 1, C: 0.5})
	release, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	req := BuildRequest{Dataset: "ds", Family: catalog.FamilyHistogram, Metric: "SSE", Budget: 5}
	for k := 0; k < 5; k++ {
		resp, ok, bad := postBuild(t, ts, req)
		if resp.StatusCode != http.StatusAccepted || ok.Status != "queued" {
			t.Fatalf("re-POST %d: status %d %q (error %+v), want 202 queued", k, resp.StatusCode, ok.Status, bad)
		}
	}
	release()
	req.Wait = true
	if resp, _, bad := postBuild(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("final wait build: status %d, error %+v", resp.StatusCode, bad)
	}
	if cat.Len() != 1 {
		t.Fatalf("catalog has %d entries after duplicate requests, want 1", cat.Len())
	}
}

// Shutdown stops ingest with a typed error but drains already-queued
// builds to completion.
func TestShutdownDrainsQueue(t *testing.T) {
	cat := catalog.New()
	s, ts, _ := newFixture(t, Config{Catalog: cat, C: 0.5})
	if resp, _, _ := postBuild(t, ts, BuildRequest{Dataset: "ds", Family: catalog.FamilyWavelet, Metric: "SSE", Budget: 4}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue: status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	key, err := catalog.NewKey("ds", catalog.FamilyWavelet, "SSE", 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cat.Get(key); !ok {
		t.Fatal("queued build was not drained before shutdown returned")
	}
	resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "ds", Family: catalog.FamilyHistogram, Metric: "SSE", Budget: 4})
	if resp.StatusCode != http.StatusServiceUnavailable || bad.Error.Code != CodeShuttingDown {
		t.Fatalf("post-shutdown build: status %d, error %+v", resp.StatusCode, bad)
	}
	// Estimates keep answering after ingest closes.
	var er EstimateResponse
	if resp := getJSON(t, ts.URL+"/v1/estimate?dataset=ds&family=wavelet&metric=SSE&budget=4&i=1", &er); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-shutdown estimate: status %d", resp.StatusCode)
	}
}

// The build side's typed errors; every read error is a row of
// TestReadPathsAgree.
func TestTypedErrors(t *testing.T) {
	_, ts, _ := newFixture(t, Config{C: 0.5})
	postRaw := func(t *testing.T, path string, body []byte) (*http.Response, ErrorBody) {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var bad ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
			t.Fatal(err)
		}
		return resp, bad
	}
	// postPadded posts head, bound bytes of JSON whitespace, then tail.
	postPadded := func(t *testing.T, path, head, tail string, bound int) (*http.Response, ErrorBody) {
		body := append([]byte(head), bytes.Repeat([]byte(" "), bound)...)
		resp, bad := postRaw(t, path, append(body, tail...))
		if !strings.Contains(bad.Error.Message, "too large") {
			t.Errorf("%s: %q does not name the body bound", path, bad.Error.Message)
		}
		return resp, bad
	}
	cases := []struct {
		name   string
		do     func(*testing.T) (*http.Response, ErrorBody)
		status int
		code   string
	}{
		{"unknown metric", func(t *testing.T) (*http.Response, ErrorBody) {
			resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "ds", Family: "histogram", Metric: "XXX", Budget: 8})
			return resp, bad
		}, http.StatusBadRequest, CodeBadRequest},
		// A histogram metric: a wavelet's SSE-fixed optimum is its SSE synopsis.
		{"wavelet SSE-fixed build", func(t *testing.T) (*http.Response, ErrorBody) {
			resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "ds", Family: "wavelet", Metric: "SSE-fixed", Budget: 8, Quantize: 16})
			return resp, bad
		}, http.StatusBadRequest, CodeBadRequest},
		{"wavelet SSE-fixed read", func(t *testing.T) (resp *http.Response, bad ErrorBody) {
			return getJSON(t, ts.URL+"/v1/estimate?dataset=ds&family=wavelet&metric=SSE-fixed&budget=8&i=0", &bad), bad
		}, http.StatusBadRequest, CodeBadRequest},
		{"unknown family", func(t *testing.T) (*http.Response, ErrorBody) {
			resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "ds", Family: "sketch", Metric: "SSE", Budget: 8})
			return resp, bad
		}, http.StatusBadRequest, CodeBadRequest},
		{"missing dataset", func(t *testing.T) (*http.Response, ErrorBody) {
			resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "nope", Family: "histogram", Metric: "SSE", Budget: 8})
			return resp, bad
		}, http.StatusNotFound, CodeNotFound},
		{"path traversal", func(t *testing.T) (*http.Response, ErrorBody) {
			resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "../ds", Family: "histogram", Metric: "SSE", Budget: 8})
			return resp, bad
		}, http.StatusBadRequest, CodeBadRequest},
		{"bad body", func(t *testing.T) (*http.Response, ErrorBody) {
			return postRaw(t, "/v1/build", []byte("{nope"))
		}, http.StatusBadRequest, CodeBadRequest},
		{"oversized body", func(t *testing.T) (*http.Response, ErrorBody) {
			huge := append([]byte(`{"dataset":"`), bytes.Repeat([]byte("x"), maxBuildBody)...)
			huge = append(huge, []byte(`","family":"histogram","metric":"SSE","budget":8}`)...)
			return postRaw(t, "/v1/build", huge)
		}, http.StatusBadRequest, CodeBadRequest},
		// Each endpoint bounds its own body. The padded bodies are valid
		// requests but for their size, so only the bound can refuse them.
		{"oversized append", func(t *testing.T) (*http.Response, ErrorBody) {
			return postPadded(t, "/v1/append", `{"dataset":"ds","items":[{"entries":[{"freq":1,"prob":0.5}]}],`, `"wait":true}`, maxMutateBody)
		}, http.StatusBadRequest, CodeBadRequest},
		{"oversized update", func(t *testing.T) (*http.Response, ErrorBody) {
			return postPadded(t, "/v1/update", `{"dataset":"ds","i":0,"item":{"entries":[{"freq":1,"prob":0.5}]},`, `"wait":true}`, maxMutateBody)
		}, http.StatusBadRequest, CodeBadRequest},
		{"oversized query", func(t *testing.T) (*http.Response, ErrorBody) {
			return postPadded(t, "/v1/query", `{"ops":[{"dataset":"ds","family":"histogram","metric":"SSE","budget":8,"op":"estimate","i":0}]`, `}`, maxQueryBody)
		}, http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, bad := tc.do(t)
			if resp.StatusCode != tc.status || bad.Error.Code != tc.code {
				t.Errorf("status %d code %q, want %d %q (%s)", resp.StatusCode, bad.Error.Code, tc.status, tc.code, bad.Error.Message)
			}
		})
	}
}

// Handler serves each endpoint straight from its handler: the right
// method reaches the handler, which answers in JSON (an empty request is
// a typed error, or the listing for /v1/synopses); the wrong method is
// the mux's 405 naming the right one; and a path outside the API is 404.
func TestHandlerRoutes(t *testing.T) {
	_, ts, _ := newFixture(t, Config{})
	do := func(t *testing.T, method, path string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	for _, route := range []struct{ method, path string }{
		{http.MethodPost, "/v1/build"},
		{http.MethodPost, "/v1/sweep"},
		{http.MethodPost, "/v1/append"},
		{http.MethodPost, "/v1/update"},
		{http.MethodGet, "/v1/estimate"},
		{http.MethodGet, "/v1/rangesum"},
		{http.MethodPost, "/v1/query"},
		{http.MethodGet, "/v1/synopses"},
		// HEAD and escaped paths skip the exact GET route; the mux answers
		// them with the read handlers all the same.
		{http.MethodHead, "/v1/estimate"},
		{http.MethodHead, "/v1/rangesum"},
		{http.MethodGet, "/v1/%65stimate"},
		{http.MethodGet, "/v1/r%61ngesum"},
	} {
		t.Run(route.method+" "+route.path, func(t *testing.T) {
			resp := do(t, route.method, route.path)
			if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed ||
				!strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
				t.Errorf("%s %s: status %d, Content-Type %q; want the handler's JSON answer",
					route.method, route.path, resp.StatusCode, resp.Header.Get("Content-Type"))
			}
			wrong := http.MethodGet
			if route.method == http.MethodGet || route.method == http.MethodHead {
				wrong = http.MethodPost
			}
			resp = do(t, wrong, route.path)
			if resp.StatusCode != http.StatusMethodNotAllowed || !strings.Contains(resp.Header.Get("Allow"), route.method) {
				t.Errorf("%s %s: status %d, Allow %q; want 405 allowing %s",
					wrong, route.path, resp.StatusCode, resp.Header.Get("Allow"), route.method)
			}
		})
	}
	t.Run("unknown path", func(t *testing.T) {
		for _, path := range []string{"/", "/v1/", "/v1/peers", "/v1/build/extra"} {
			if resp := do(t, http.MethodGet, path); resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
			}
		}
	})
}

func TestNewValidatesConfig(t *testing.T) {
	cat, pool := catalog.New(), engine.Serial()
	bad := []Config{
		{Catalog: nil, Pool: pool, DataDir: "x"},
		{Catalog: cat, Pool: nil, DataDir: "x"},
		{Catalog: cat, Pool: pool, DataDir: ""},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// postSweep POSTs to /v1/sweep with the same body shape as a build.
func postSweep(t testing.TB, ts *httptest.Server, req BuildRequest) (*http.Response, BuildResponse, ErrorBody) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok BuildResponse
	var bad ErrorBody
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatal(err)
		}
	} else if err := json.Unmarshal(raw, &bad); err != nil {
		t.Fatal(err)
	}
	return resp, ok, bad
}

// One POST /v1/sweep must catalog the synopsis for every budget 1..B of
// the key, each byte-identical — in memory and on disk — to an offline
// single-budget build, for both families; a re-POST answers "ready".
func TestSweepCatalogsEveryBudgetByteIdentical(t *testing.T) {
	catDir := t.TempDir()
	cat := catalog.New()
	_, ts, src := newFixture(t, Config{CatalogDir: catDir, Catalog: cat, C: 0.5})
	const B = 6
	cases := []struct {
		family, metric string
		offline        []probsyn.BuildOption
	}{
		{catalog.FamilyHistogram, "SSE", nil},
		{catalog.FamilyWavelet, "SAE", []probsyn.BuildOption{probsyn.WithWavelet()}},
	}
	for _, tc := range cases {
		resp, ok, bad := postSweep(t, ts, BuildRequest{
			Dataset: "ds", Family: tc.family, Metric: tc.metric, Budget: B, Wait: true,
		})
		if resp.StatusCode != http.StatusOK || ok.Status != "built" {
			t.Fatalf("%s sweep: status %d %q (error %+v)", tc.family, resp.StatusCode, ok.Status, bad)
		}
		if ok.Budgets != B {
			t.Fatalf("%s sweep: budgets %d, want %d", tc.family, ok.Budgets, B)
		}
		for b := 1; b <= B; b++ {
			key, err := catalog.NewKey("ds", tc.family, tc.metric, b, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			entry, found := cat.Get(key)
			if !found {
				t.Fatalf("%s sweep: budget %d not cataloged", tc.family, b)
			}
			want, err := probsyn.Build(src, mustMetric(t, tc.metric), b, tc.offline...)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes, err := probsyn.MarshalSynopsis(want)
			if err != nil {
				t.Fatal(err)
			}
			gotBytes, err := synopsis.Marshal(entry.Synopsis)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("%s sweep: budget %d synopsis differs from single offline build", tc.family, b)
			}
			disk, err := os.ReadFile(filepath.Join(catDir, key.Filename()))
			if err != nil {
				t.Fatalf("%s sweep: budget %d not persisted: %v", tc.family, b, err)
			}
			if !bytes.Equal(disk, wantBytes) {
				t.Fatalf("%s sweep: budget %d catalog file differs from single offline build", tc.family, b)
			}
		}
		// All budgets present now: a repeat answers ready without building.
		resp, ok, bad = postSweep(t, ts, BuildRequest{Dataset: "ds", Family: tc.family, Metric: tc.metric, Budget: B})
		if resp.StatusCode != http.StatusOK || ok.Status != "ready" {
			t.Fatalf("%s re-sweep: status %d %q (error %+v), want 200 ready", tc.family, resp.StatusCode, ok.Status, bad)
		}
	}
}

func mustMetric(t *testing.T, name string) probsyn.Metric {
	t.Helper()
	m, err := probsyn.ParseMetric(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A sweep whose budget exceeds the domain still catalogs every requested
// budget; the over-domain budgets repeat the clamped frontier maximum,
// exactly as single builds at those budgets would.
func TestSweepBudgetsBeyondDomainClamp(t *testing.T) {
	cat := catalog.New()
	_, ts, src := newFixture(t, Config{Catalog: cat, C: 0.5})
	n := src.Domain()
	B := n + 3
	resp, ok, bad := postSweep(t, ts, BuildRequest{
		Dataset: "ds", Family: catalog.FamilyHistogram, Metric: "SSE", Budget: B, Wait: true,
	})
	if resp.StatusCode != http.StatusOK || ok.Budgets != B {
		t.Fatalf("sweep: status %d, %d budgets, error %+v; want %d budgets", resp.StatusCode, ok.Budgets, bad, B)
	}
	for _, b := range []int{n, n + 1, B} {
		key, err := catalog.NewKey("ds", catalog.FamilyHistogram, "SSE", b, 0)
		if err != nil {
			t.Fatal(err)
		}
		entry, found := cat.Get(key)
		if !found {
			t.Fatalf("budget %d missing from swept catalog", b)
		}
		if got := entry.Synopsis.Terms(); got != n {
			t.Fatalf("budget %d has %d terms, want the domain-clamped %d", b, got, n)
		}
	}
}

// Sweep budgets are bounded per request: a sweep registers one catalog
// entry per budget, so an astronomically large budget field must be
// rejected up front instead of grinding the server.
func TestSweepBudgetBounded(t *testing.T) {
	_, ts, _ := newFixture(t, Config{C: 0.5})
	resp, _, bad := postSweep(t, ts, BuildRequest{
		Dataset: "ds", Family: catalog.FamilyHistogram, Metric: "SSE", Budget: maxSweepBudget + 1,
	})
	if resp.StatusCode != http.StatusBadRequest || bad.Error.Code != CodeBadRequest {
		t.Fatalf("oversized sweep: status %d, error %+v, want 400 bad_request", resp.StatusCode, bad)
	}
}

// Sweeps dedupe with sweeps: re-POSTing a queued sweep attaches to the
// in-flight job instead of enqueueing another frontier build.
func TestDuplicateSweepRequestsCoalesce(t *testing.T) {
	pool := engine.New(engine.Options{Workers: 1, MaxBuilds: 1})
	cat := catalog.New()
	_, ts, _ := newFixture(t, Config{Pool: pool, Catalog: cat, QueueDepth: 1, C: 0.5})
	release, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	req := BuildRequest{Dataset: "ds", Family: catalog.FamilyHistogram, Metric: "SSE", Budget: 4}
	for k := 0; k < 5; k++ {
		resp, ok, bad := postSweep(t, ts, req)
		if resp.StatusCode != http.StatusAccepted || ok.Status != "queued" {
			t.Fatalf("re-POST %d: status %d %q (error %+v), want 202 queued", k, resp.StatusCode, ok.Status, bad)
		}
	}
	release()
	req.Wait = true
	if resp, _, bad := postSweep(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("final wait sweep: status %d, error %+v", resp.StatusCode, bad)
	}
	if cat.Len() != req.Budget {
		t.Fatalf("catalog has %d entries after duplicate sweeps, want %d", cat.Len(), req.Budget)
	}
}
