package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/pdata"
	"probsyn/internal/query"
)

// valueDataset builds the deterministic value-pdf dataset the mutation
// tests run against (mutations are defined over the value-pdf model).
func valueDataset(n int) *pdata.ValuePDF {
	vp := &pdata.ValuePDF{N: n, Items: make([]pdata.ItemPDF, n)}
	for i := 0; i < n; i++ {
		vp.Items[i] = pdata.ItemPDF{Entries: []pdata.FreqProb{
			{Freq: float64(i % 5), Prob: 0.5},
			{Freq: float64(2 + i%3), Prob: 0.25},
		}}
	}
	return vp
}

// newValueFixture is newFixture over a value-model dataset.
func newValueFixture(t *testing.T, cfg Config) (*Server, *httptest.Server, *pdata.ValuePDF) {
	t.Helper()
	dataDir := t.TempDir()
	vp := valueDataset(24)
	f, err := os.Create(filepath.Join(dataDir, "vds.pd"))
	if err != nil {
		t.Fatal(err)
	}
	if err := probsyn.WriteDataset(f, vp); err != nil {
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
	return s, ts, vp
}

func postJSON(t *testing.T, url string, req any) (*http.Response, json.RawMessage) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func postMutate(t *testing.T, ts *httptest.Server, path string, req MutateRequest) (*http.Response, MutateResponse, ErrorBody) {
	t.Helper()
	resp, raw := postJSON(t, ts.URL+path, req)
	var ok MutateResponse
	var bad ErrorBody
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatal(err)
		}
	} else if err := json.Unmarshal(raw, &bad); err != nil {
		t.Fatal(err)
	}
	return resp, ok, bad
}

// assertCatalogMatchesOfflineRebuild re-derives every cataloged key of
// the dataset with a fresh offline BuildSweep over `want` and compares
// the persisted catalog files byte for byte.
func assertCatalogMatchesOfflineRebuild(t *testing.T, catDir string, want *pdata.ValuePDF, dataset string, c float64) {
	t.Helper()
	des, err := os.ReadDir(catDir)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	sweeps := map[catalog.Key]probsyn.Frontier{}
	maxBudget := map[catalog.Key]int{}
	var keys []catalog.Key
	for _, de := range des {
		key, err := catalog.ParseFilename(de.Name())
		if err != nil || key.Dataset != dataset {
			continue
		}
		keys = append(keys, key)
		lk := key
		lk.Budget = 0
		if key.Budget > maxBudget[lk] {
			maxBudget[lk] = key.Budget
		}
	}
	for _, key := range keys {
		lk := key
		lk.Budget = 0
		fr, ok := sweeps[lk]
		if !ok {
			m, err := probsyn.ParseMetric(key.Metric)
			if err != nil {
				t.Fatal(err)
			}
			opts := []probsyn.BuildOption{probsyn.WithParams(probsyn.Params{C: key.C})}
			if key.Family == catalog.FamilyWavelet {
				opts = append(opts, probsyn.WithWavelet())
				if key.Q > 0 {
					opts = append(opts, probsyn.WithQuantize(key.Q))
				}
			}
			if fr, err = probsyn.BuildSweep(want, m, maxBudget[lk], opts...); err != nil {
				t.Fatal(err)
			}
			sweeps[lk] = fr
		}
		eb := key.Budget
		if eb > fr.Bmax() {
			eb = fr.Bmax()
		}
		syn, err := fr.Synopsis(eb)
		if err != nil {
			t.Fatal(err)
		}
		wantBlob, err := probsyn.MarshalSynopsis(syn)
		if err != nil {
			t.Fatal(err)
		}
		gotBlob, err := os.ReadFile(filepath.Join(catDir, key.Filename()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBlob, wantBlob) {
			t.Fatalf("catalog file %s differs from offline rebuild over mutated data", key.Filename())
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no catalog files checked")
	}
}

// TestMutateAfterShardedBuild: a sharded build publishes one synopsis
// under the ordinary key, so a mutation revalidates it like any other
// entry. (When the k pieces were catalog keys too, each was its own
// revalidation group: every group re-applied the mutation to the one
// shared live frontier, and the listing showed pieces of domain 26 and 27
// beside a 24-item dataset after a single one-item append.)
func TestMutateAfterShardedBuild(t *testing.T) {
	catDir := t.TempDir()
	_, ts, vp := newValueFixture(t, Config{CatalogDir: catDir})
	for _, family := range []string{"histogram", "wavelet"} {
		if resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "vds", Family: family, Metric: "SSE", Budget: 6, Shards: 2, Wait: true}); resp.StatusCode != http.StatusOK {
			t.Fatalf("sharded %s build: %d %v", family, resp.StatusCode, bad)
		}
	}
	item := ItemPDFWire{Entries: []FreqProbWire{{Freq: 3, Prob: 0.5}}}
	want := vp.Clone()
	for step, req := range []MutateRequest{
		{Dataset: "vds", Items: []ItemPDFWire{item}, Wait: true},
		{Dataset: "vds", Items: []ItemPDFWire{item, item}, Wait: true},
		{Dataset: "vds", I: 5, Item: &item, Wait: true},
	} {
		path := "/v1/append"
		if req.Item != nil {
			path = "/v1/update"
			want.Items[req.I] = item.toPDF()
		}
		for _, iw := range req.Items {
			want.Items = append(want.Items, iw.toPDF())
		}
		want.N = len(want.Items)
		resp, ok, bad := postMutate(t, ts, path, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutation %d: %d %v", step, resp.StatusCode, bad)
		}
		if ok.Domain != want.N || ok.Republished != 2 {
			t.Fatalf("mutation %d answered domain %d, republished %d; want %d and the 2 built keys", step, ok.Domain, ok.Republished, want.N)
		}
		var list ListResponse
		getJSON(t, ts.URL+"/v1/synopses", &list)
		if len(list.Synopses) != 2 {
			t.Fatalf("mutation %d: %d synopses listed, want 2: %+v", step, len(list.Synopses), list.Synopses)
		}
		for _, row := range list.Synopses {
			domain := want.N
			if row.Key.Family == "wavelet" {
				domain = 32 // padded to a power of two
			}
			if row.Domain != domain {
				t.Fatalf("mutation %d: %v listed at domain %d, the dataset has %d items", step, row.Key, row.Domain, want.N)
			}
		}
		des, err := os.ReadDir(catDir)
		if err != nil || len(des) != 2 {
			t.Fatalf("mutation %d: catalog directory holds %d files, want one per built key (%v)", step, len(des), err)
		}
		assertCatalogMatchesOfflineRebuild(t, catDir, want, "vds", 0)
	}
}

// TestQuantizedEntriesCoexistAndRevalidate: a quantized (approximate
// restricted DP) wavelet build catalogs under its own key next to the
// exact build of the same dataset/metric/budget, serves through the
// lookup and batch paths when the querier says q, persists byte-identical
// to the offline quantized build, and revalidates through its own
// retained quantized live frontier on mutation.
func TestQuantizedEntriesCoexistAndRevalidate(t *testing.T) {
	catDir := t.TempDir()
	_, ts, vp := newValueFixture(t, Config{CatalogDir: catDir, C: 0.5})
	const q = 4

	if resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "vds", Family: "wavelet", Metric: "SAE", Budget: 4, Wait: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("exact build: %d %v", resp.StatusCode, bad)
	}
	if resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "vds", Family: "wavelet", Metric: "SAE", Budget: 4, Quantize: q, Wait: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("quantized build: %d %v", resp.StatusCode, bad)
	}

	// Both entries coexist, and the quantized catalog file is
	// byte-identical to the offline quantized build.
	exact, err := probsyn.Build(vp, probsyn.SAE, 4, probsyn.WithWavelet(), probsyn.WithParams(probsyn.Params{C: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	approx, err := probsyn.Build(vp, probsyn.SAE, 4, probsyn.WithWavelet(), probsyn.WithQuantize(q), probsyn.WithParams(probsyn.Params{C: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	qkey, err := catalog.NewKeyQ("vds", catalog.FamilyWavelet, "SAE", 4, 0, q)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(catDir, qkey.Filename()))
	if err != nil {
		t.Fatal(err)
	}
	wantBlob, err := probsyn.MarshalSynopsis(approx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, wantBlob) {
		t.Fatal("persisted quantized envelope differs from the offline quantized build")
	}

	// The lookup path routes on &q=: without it the exact synopsis
	// answers, with it the quantized one.
	for i := 0; i < vp.N; i += 5 {
		var er EstimateResponse
		base := fmt.Sprintf("%s/v1/estimate?dataset=vds&family=wavelet&metric=SAE&budget=4&i=%d", ts.URL, i)
		if resp := getJSON(t, base, &er); resp.StatusCode != http.StatusOK {
			t.Fatalf("exact estimate: %d", resp.StatusCode)
		}
		if er.Estimate != exact.Estimate(i) {
			t.Fatalf("exact Estimate(%d) = %v, offline %v", i, er.Estimate, exact.Estimate(i))
		}
		if resp := getJSON(t, base+fmt.Sprintf("&q=%d", q), &er); resp.StatusCode != http.StatusOK {
			t.Fatalf("quantized estimate: %d", resp.StatusCode)
		}
		if er.Estimate != approx.Estimate(i) {
			t.Fatalf("quantized Estimate(%d) = %v, offline %v", i, er.Estimate, approx.Estimate(i))
		}
	}

	// The batch path routes on the op's q member the same way.
	resp, got, bad := postQuery(t, ts, query.BatchRequest{Ops: []query.Op{
		{BatchKey: query.BatchKey{Dataset: "vds", Family: "wavelet", Metric: "SAE", Budget: 4}, Op: query.OpEstimate, I: 7},
		{BatchKey: query.BatchKey{Dataset: "vds", Family: "wavelet", Metric: "SAE", Budget: 4, Q: q}, Op: query.OpEstimate, I: 7},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %v", resp.StatusCode, bad)
	}
	if got.Results[0].Value != exact.Estimate(7) || got.Results[1].Value != approx.Estimate(7) {
		t.Fatalf("batch routed wrong entries: %v / %v, want %v / %v",
			got.Results[0].Value, got.Results[1].Value, exact.Estimate(7), approx.Estimate(7))
	}

	// Unkeyable quantized requests are rejected before any work runs.
	for _, req := range []BuildRequest{
		{Dataset: "vds", Family: "histogram", Metric: "SSE", Budget: 4, Quantize: q},
		{Dataset: "vds", Family: "wavelet", Metric: "SSE", Budget: 4, Quantize: q},
		{Dataset: "vds", Family: "wavelet", Metric: "SAE", Budget: 4, Quantize: 1},
	} {
		if resp, _, _ := postBuild(t, ts, req); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("build %+v: status %d, want 400", req, resp.StatusCode)
		}
	}

	// A mutation republishes both entries — the quantized one through its
	// own quantized live frontier, byte-identical to an offline quantized
	// rebuild over the mutated data.
	item := ItemPDFWire{Entries: []FreqProbWire{{Freq: 3, Prob: 0.5}}}
	mresp, ok, mbad := postMutate(t, ts, "/v1/append", MutateRequest{Dataset: "vds", Items: []ItemPDFWire{item}, Wait: true})
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %v", mresp.StatusCode, mbad)
	}
	if ok.Republished != 2 {
		t.Fatalf("republished %d entries, want 2", ok.Republished)
	}
	want := vp.Clone()
	want.Items = append(want.Items, item.toPDF())
	want.N = len(want.Items)
	assertCatalogMatchesOfflineRebuild(t, catDir, want, "vds", 0.5)
}

// TestMutateDatasetFilePersisted: the on-disk dataset is atomically
// rewritten before any republish, so a restarted server rebuilds exactly
// what was served.
func TestMutateDatasetFilePersisted(t *testing.T) {
	s, ts, vp := newValueFixture(t, Config{C: 0.5})
	item := ItemPDFWire{Entries: []FreqProbWire{{Freq: 3, Prob: 0.5}}}
	if resp, _, bad := postMutate(t, ts, "/v1/append", MutateRequest{Dataset: "vds", Items: []ItemPDFWire{item}, Wait: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %v", resp.StatusCode, bad)
	}
	f, err := os.Open(s.datasetPath("vds"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := probsyn.ReadDataset(f)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := src.(*pdata.ValuePDF)
	if !ok {
		t.Fatalf("persisted dataset is %T", src)
	}
	if got.N != vp.N+1 {
		t.Fatalf("persisted domain %d, want %d", got.N, vp.N+1)
	}
	if len(got.Items[vp.N].Entries) != 1 || got.Items[vp.N].Entries[0].Freq != 3 {
		t.Fatalf("persisted appended item: %+v", got.Items[vp.N])
	}
}

// TestMutateValidation covers the typed-error surface of the mutation
// endpoints.
func TestMutateValidation(t *testing.T) {
	_, ts, _ := newValueFixture(t, Config{C: 0.5})
	item := &ItemPDFWire{Entries: []FreqProbWire{{Freq: 1, Prob: 0.5}}}

	cases := []struct {
		name, path string
		req        MutateRequest
		status     int
		code       string
	}{
		{"missing dataset", "/v1/append", MutateRequest{Dataset: "nope", Items: []ItemPDFWire{*item}}, http.StatusNotFound, CodeNotFound},
		{"empty dataset", "/v1/append", MutateRequest{Items: []ItemPDFWire{*item}}, http.StatusBadRequest, CodeBadRequest},
		{"no items", "/v1/append", MutateRequest{Dataset: "vds"}, http.StatusBadRequest, CodeBadRequest},
		{"bad pdf", "/v1/append", MutateRequest{Dataset: "vds", Items: []ItemPDFWire{{Entries: []FreqProbWire{{Freq: 1, Prob: 1.5}}}}}, http.StatusBadRequest, CodeBadRequest},
		{"no item", "/v1/update", MutateRequest{Dataset: "vds", I: 0}, http.StatusBadRequest, CodeBadRequest},
		{"negative index", "/v1/update", MutateRequest{Dataset: "vds", I: -1, Item: item}, http.StatusBadRequest, CodeBadRequest},
		{"path escape", "/v1/append", MutateRequest{Dataset: "../x", Items: []ItemPDFWire{*item}}, http.StatusBadRequest, CodeBadRequest},
		{"out-of-domain update", "/v1/update", MutateRequest{Dataset: "vds", I: 10000, Item: item, Wait: true}, http.StatusInternalServerError, CodeBuildFailed},
	}
	for _, tc := range cases {
		resp, _, bad := postMutate(t, ts, tc.path, tc.req)
		if resp.StatusCode != tc.status || bad.Error.Code != tc.code {
			t.Errorf("%s: got %d/%q, want %d/%q (%s)", tc.name, resp.StatusCode, bad.Error.Code, tc.status, tc.code, bad.Error.Message)
		}
	}
}

// TestMutateRejectsNonValueModel: mutation of a basic-model dataset is a
// clean 400, not a worker-side failure.
func TestMutateRejectsNonValueModel(t *testing.T) {
	_, ts, _ := newFixture(t, Config{C: 0.5}) // MystiQ basic-model dataset "ds"
	item := ItemPDFWire{Entries: []FreqProbWire{{Freq: 1, Prob: 0.5}}}
	resp, _, bad := postMutate(t, ts, "/v1/append", MutateRequest{Dataset: "ds", Items: []ItemPDFWire{item}, Wait: true})
	if resp.StatusCode != http.StatusBadRequest || bad.Error.Code != CodeBadRequest {
		t.Fatalf("got %d/%q, want 400/bad_request", resp.StatusCode, bad.Error.Code)
	}
}

// TestMutationsApplyInPostOrder: mutations drain on a single goroutine,
// so async appends land in POST order — append semantics ("item
// Domain() gets items[0]") make that order load-bearing.
func TestMutationsApplyInPostOrder(t *testing.T) {
	s, ts, vp := newValueFixture(t, Config{C: 0.5, BuildWorkers: 4})
	for k := 0; k < 3; k++ {
		item := ItemPDFWire{Entries: []FreqProbWire{{Freq: float64(10 + k), Prob: 0.5}}}
		wait := k == 2 // the last append synchronizes the whole sequence
		resp, _, bad := postMutate(t, ts, "/v1/append", MutateRequest{Dataset: "vds", Items: []ItemPDFWire{item}, Wait: wait})
		if resp.StatusCode >= 300 {
			t.Fatalf("append %d: %d %v", k, resp.StatusCode, bad)
		}
	}
	f, err := os.Open(s.datasetPath("vds"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := probsyn.ReadDataset(f)
	if err != nil {
		t.Fatal(err)
	}
	got := src.(*pdata.ValuePDF)
	if got.N != vp.N+3 {
		t.Fatalf("domain %d, want %d", got.N, vp.N+3)
	}
	for k := 0; k < 3; k++ {
		if f := got.Items[vp.N+k].Entries[0].Freq; f != float64(10+k) {
			t.Fatalf("appended item %d has freq %v, want %d (out-of-order apply)", k, f, 10+k)
		}
	}
}

// TestMutateFailureWithdrawsStaleEntries: when a mutation fails after
// the dataset was persisted, the not-yet-republished catalog entries
// are withdrawn — a cataloged entry would short-circuit /v1/build, so
// withdrawal is what turns the failure into not_found + rebuild instead
// of silently stale estimates.
func TestMutateFailureWithdrawsStaleEntries(t *testing.T) {
	dir := t.TempDir()
	// CatalogDir is a FILE: dataset persistence (DataDir) succeeds, but
	// republish's WriteBlob into it must fail.
	notADir := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts, vp := newValueFixture(t, Config{C: 0.5, CatalogDir: notADir})

	// Seed the in-memory catalog directly (persistence is broken by
	// construction, so we cannot build through the API).
	syn, err := probsyn.Build(vp, probsyn.SSE, 3)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := probsyn.MarshalSynopsis(syn)
	if err != nil {
		t.Fatal(err)
	}
	key, err := catalog.NewKey("vds", catalog.FamilyHistogram, "SSE", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cat := s.cfg.Catalog
	cat.PutEncoded(key, syn, blob)

	item := ItemPDFWire{Entries: []FreqProbWire{{Freq: 2, Prob: 0.5}}}
	resp, _, bad := postMutate(t, ts, "/v1/append", MutateRequest{Dataset: "vds", Items: []ItemPDFWire{item}, Wait: true})
	if resp.StatusCode != http.StatusInternalServerError || bad.Error.Code != CodeBuildFailed {
		t.Fatalf("got %d/%q, want 500/build_failed", resp.StatusCode, bad.Error.Code)
	}
	if !strings.Contains(bad.Error.Message, "withdrew 1 stale catalog entries") {
		t.Fatalf("error message does not report the withdrawal: %s", bad.Error.Message)
	}
	if _, ok := cat.Get(key); ok {
		t.Fatal("stale catalog entry survived a failed mutation")
	}
	// And the served surface agrees: the key is gone, not stale.
	var eb ErrorBody
	url := ts.URL + "/v1/estimate?dataset=vds&family=histogram&metric=SSE&budget=3&i=1"
	if resp := getJSON(t, url, &eb); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("estimate after failed mutation: %d, want 404", resp.StatusCode)
	}
}

// TestLiveStateEviction: the retained live frontiers are bounded; the
// least-recently-mutated one is evicted and a later mutation of its
// dataset simply rebuilds from the persisted source.
func TestLiveStateEviction(t *testing.T) {
	s, ts, _ := newValueFixture(t, Config{C: 0.5, MaxLiveStates: 1})
	if resp, _, bad := postSweep(t, ts, BuildRequest{Dataset: "vds", Family: "histogram", Metric: "SSE", Budget: 2, Wait: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %v", resp.StatusCode, bad)
	}
	if resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "vds", Family: "wavelet", Metric: "SSE", Budget: 2, Wait: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %v", resp.StatusCode, bad)
	}
	item := ItemPDFWire{Entries: []FreqProbWire{{Freq: 1, Prob: 0.5}}}
	// Two frontier groups (histogram + wavelet) under a cap of one: each
	// mutation rebuilds at least one, the catalog still revalidates fully.
	for k := 0; k < 2; k++ {
		resp, ok, bad := postMutate(t, ts, "/v1/append", MutateRequest{Dataset: "vds", Items: []ItemPDFWire{item}, Wait: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d: %d %v", k, resp.StatusCode, bad)
		}
		if ok.Republished != 3 {
			t.Fatalf("append %d republished %d, want 3", k, ok.Republished)
		}
	}
	s.livesMu.Lock()
	n := len(s.lives)
	s.livesMu.Unlock()
	if n != 1 {
		t.Fatalf("%d retained live states, want 1 (cap)", n)
	}
}
