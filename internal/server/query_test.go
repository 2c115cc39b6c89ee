package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
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
	"probsyn/internal/query"
)

// postQuery posts a batch to /v1/query and decodes whichever envelope
// came back.
func postQuery(t *testing.T, ts *httptest.Server, req query.BatchRequest) (*http.Response, query.BatchResponse, ErrorBody) {
	t.Helper()
	resp, raw := postJSON(t, ts.URL+"/v1/query", req)
	var ok query.BatchResponse
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

// TestQueryBatchRejectsBadBodies: only a malformed or empty batch fails
// the whole request, with the typed error envelope.
func TestQueryBatchRejectsBadBodies(t *testing.T) {
	_, ts, _ := newFixture(t, Config{C: 0.5})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bad ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || bad.Error.Code != CodeBadRequest {
		t.Fatalf("malformed body: %d %v", resp.StatusCode, bad)
	}
	if resp, _, bad := postQuery(t, ts, query.BatchRequest{}); resp.StatusCode != http.StatusBadRequest || bad.Error.Code != CodeBadRequest {
		t.Fatalf("empty batch: %d %v", resp.StatusCode, bad)
	}
}

// TestConcurrentQueryDuringMutation races /v1/query batches against
// /v1/append and /v1/update republication (run under -race). Two
// invariants: mid-mutation batches always answer from a coherent
// published entry (never a partial republish), and the instant a
// wait:true mutation returns, batches serve the new synopsis —
// bit-identical to an offline rebuild over the mutated dataset, i.e. no
// stale compiled querier survives a publish.
func TestConcurrentQueryDuringMutation(t *testing.T) {
	_, ts, vp := newValueFixture(t, Config{C: 0.5})
	for _, b := range []BuildRequest{
		{Dataset: "vds", Family: "histogram", Metric: "SSE", Budget: 3, Wait: true},
		{Dataset: "vds", Family: "wavelet", Metric: "SAE", Budget: 3, Wait: true},
	} {
		if resp, _, bad := postBuild(t, ts, b); resp.StatusCode != http.StatusOK {
			t.Fatalf("build %+v: %d %v", b, resp.StatusCode, bad)
		}
	}
	kh := query.BatchKey{Dataset: "vds", Family: "histogram", Metric: "SSE", Budget: 3}
	kw := query.BatchKey{Dataset: "vds", Family: "wavelet", Metric: "SAE", Budget: 3}
	hammer := query.BatchRequest{Ops: []query.Op{
		{BatchKey: kh, Op: query.OpEstimate, I: 2},
		{BatchKey: kw, Op: query.OpEstimate, I: 2},
		{BatchKey: kh, Op: query.OpRangeSum, Lo: 0, Hi: 10},
		{BatchKey: kw, Op: query.OpRangeSum, Lo: 0, Hi: 10},
	}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(hammer)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var got query.BatchResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK || len(got.Results) != len(hammer.Ops) {
					t.Errorf("hammer batch: %d, %d results", resp.StatusCode, len(got.Results))
					return
				}
				for i, r := range got.Results {
					// Entries are replaced, never withdrawn, by a mutation
					// republish: every op must keep answering.
					if r.Err != nil {
						t.Errorf("hammer op %d failed mid-mutation: %+v", i, r.Err)
						return
					}
				}
			}
		}()
	}

	want := vp.Clone()
	mutate := func(step int) {
		t.Helper()
		if step%2 == 0 {
			item := ItemPDFWire{Entries: []FreqProbWire{{Freq: float64(step + 1), Prob: 0.5}}}
			if resp, _, bad := postMutate(t, ts, "/v1/append", MutateRequest{Dataset: "vds", Items: []ItemPDFWire{item}, Wait: true}); resp.StatusCode != http.StatusOK {
				t.Fatalf("append %d: %d %v", step, resp.StatusCode, bad)
			}
			want.Items = append(want.Items, item.toPDF())
			want.N = len(want.Items)
			return
		}
		item := ItemPDFWire{Entries: []FreqProbWire{{Freq: float64(step), Prob: 0.25}, {Freq: 1, Prob: 0.5}}}
		if resp, _, bad := postMutate(t, ts, "/v1/update", MutateRequest{Dataset: "vds", I: step, Item: &item, Wait: true}); resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: %d %v", step, resp.StatusCode, bad)
		}
		want.Items[step] = item.toPDF()
	}
	for step := 0; step < 6; step++ {
		mutate(step)
		// The mutation has returned: served answers must already be the
		// republished synopsis. Rebuild offline and compare bit for bit.
		resp, got, bad := postQuery(t, ts, hammer)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-mutation query: %d %v", resp.StatusCode, bad)
		}
		for i, op := range hammer.Ops {
			m, err := probsyn.ParseMetric(op.Metric)
			if err != nil {
				t.Fatal(err)
			}
			opts := []probsyn.BuildOption{probsyn.WithParams(probsyn.Params{C: 0.5})}
			if op.Family == catalog.FamilyWavelet {
				opts = append(opts, probsyn.WithWavelet())
			}
			syn, err := probsyn.Build(want, m, op.Budget, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ref := query.Compile(syn)
			wantV := ref.Estimate(op.I)
			if op.Op == query.OpRangeSum {
				n := syn.Domain()
				wantV = ref.RangeSum(max(op.Lo, 0), min(op.Hi, n-1))
			}
			if r := got.Results[i]; r.Err != nil || math.Float64bits(r.Value) != math.Float64bits(wantV) {
				t.Fatalf("step %d op %d: served %+v, offline rebuild %v — stale querier after publish", step, i, r, wantV)
			}
		}
	}
	close(done)
	wg.Wait()
}

// newBenchServer stands up a server over the standard fixture dataset
// with a histogram and a wavelet synopsis already built, for the serve
// benchmarks.
func newBenchServer(b *testing.B) (*Server, *httptest.Server) {
	b.Helper()
	dataDir := b.TempDir()
	src := gen.MystiQLinkage(rand.New(rand.NewSource(7)), gen.DefaultMystiQ(64))
	f, err := os.Create(filepath.Join(dataDir, "ds.pd"))
	if err != nil {
		b.Fatal(err)
	}
	if err := probsyn.WriteDataset(f, src); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{
		DataDir: dataDir, CatalogDir: b.TempDir(),
		Catalog: catalog.New(), Pool: engine.New(engine.Options{Workers: 2}), C: 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	for _, fam := range []string{"histogram", "wavelet"} {
		key, err := catalog.NewKey("ds", fam, "SSE", 8, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.build(key, false); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	})
	return s, ts
}

// BenchmarkServeQueryBatch measures the full HTTP round trip of a
// 100-op mixed batch against a running server; bench/'s serve-batch
// workload is the same round trip (1,024 ops) over a loopback socket.
func BenchmarkServeQueryBatch(b *testing.B) {
	s, ts := newBenchServer(b)
	defer ts.Close()
	kh := query.BatchKey{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 8}
	kw := query.BatchKey{Dataset: "ds", Family: "wavelet", Metric: "SSE", Budget: 8}
	var req query.BatchRequest
	for i := 0; i < 100; i++ {
		k := kh
		if i%2 == 1 {
			k = kw
		}
		if i%4 < 2 {
			req.Ops = append(req.Ops, query.Op{BatchKey: k, Op: query.OpEstimate, I: i % 60})
		} else {
			req.Ops = append(req.Ops, query.Op{BatchKey: k, Op: query.OpRangeSum, Lo: i % 30, Hi: 30 + i%30})
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	_ = s
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var got query.BatchResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(got.Results) != len(req.Ops) {
			b.Fatalf("%d results", len(got.Results))
		}
	}
}
