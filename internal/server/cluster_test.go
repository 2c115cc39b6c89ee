package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/query"
)

// A k-shard build publishes exactly one thing: the merged synopsis, under
// the ordinary key, byte for byte what probsyn.BuildSharded returns. The
// response carries the bound that prices the trade.
func TestShardedBuildSingleNode(t *testing.T) {
	s, ts, src := newFixture(t, Config{C: 0.5})
	const k = 4
	for built, tc := range []struct {
		family, metric string
		opts           []probsyn.BuildOption
	}{
		{catalog.FamilyHistogram, "SSE", nil},
		{catalog.FamilyWavelet, "SAE", []probsyn.BuildOption{probsyn.WithWavelet()}},
		{catalog.FamilyWavelet, "SSE", []probsyn.BuildOption{probsyn.WithWavelet()}},
	} {
		resp, ok, bad := postBuild(t, ts, BuildRequest{
			Dataset: "ds", Family: tc.family, Metric: tc.metric, Budget: 8, Shards: k, Wait: true,
		})
		if resp.StatusCode != http.StatusOK || ok.Status != "built" {
			t.Fatalf("%s sharded build: status %d %q, error %+v", tc.family, resp.StatusCode, ok.Status, bad)
		}
		key, err := catalog.NewKey("ds", tc.family, tc.metric, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := probsyn.ParseMetric(tc.metric)
		ref, err := probsyn.BuildSharded(src, m, 8, k, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := probsyn.MarshalSynopsis(ref.Synopsis)
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(filepath.Join(s.cfg.CatalogDir, key.Filename()))
		if err != nil || !bytes.Equal(file, want) {
			t.Fatalf("%s: catalog file differs from BuildSharded's merged synopsis (%v)", key, err)
		}
		des, err := os.ReadDir(s.cfg.CatalogDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(des) != built+1 || s.cfg.Catalog.Len() != built+1 {
			t.Fatalf("%d sharded builds left %d files and %d catalog entries", built+1, len(des), s.cfg.Catalog.Len())
		}
		// The certificate: exact for SSE wavelets, otherwise the merged
		// cost is within bound of the unsharded optimum.
		if ok.Bound != ref.Bound {
			t.Fatalf("%s: response bound %v, BuildSharded says %v", key, ok.Bound, ref.Bound)
		}
		unsharded, err := probsyn.Build(src, m, 8, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if tc.family == catalog.FamilyWavelet && tc.metric == "SSE" && ok.Bound != 0 {
			t.Fatalf("SSE wavelet merge is exact, bound %v", ok.Bound)
		}
		if got := ref.Synopsis.ErrorCost(); got > unsharded.ErrorCost()+ok.Bound {
			t.Fatalf("%s: sharded cost %v exceeds unsharded %v + bound %v", key, got, unsharded.ErrorCost(), ok.Bound)
		}
		// Reads cannot tell: &shards= is not read.
		plain := fmt.Sprintf("%s/v1/rangesum?dataset=ds&family=%s&metric=%s&budget=8&lo=5&hi=40", ts.URL, tc.family, tc.metric)
		_, a := getBody(t, plain)
		status, b := getBody(t, plain+"&shards=4")
		if status != http.StatusOK || !bytes.Equal(a, b) {
			t.Fatalf("%s: &shards=4 changed the answer (%d):\n%s\n%s", key, status, a, b)
		}
	}
}

func TestShardedBuildRejections(t *testing.T) {
	_, ts, _ := newFixture(t, Config{})
	for name, req := range map[string]BuildRequest{
		"negative shards": {Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4, Shards: -2},
	} {
		resp, _, bad := postBuild(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest || bad.Error.Code != CodeBadRequest {
			t.Fatalf("%s: status %d, error %+v", name, resp.StatusCode, bad)
		}
	}
	// Sweeps cannot shard.
	body, _ := json.Marshal(BuildRequest{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4, Shards: 2})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sharded sweep: status %d", resp.StatusCode)
	}
}

// clusterNode is one fixture server of a cluster test.
type clusterNode struct {
	s    *Server
	ts   *httptest.Server
	addr string
}

// listen pre-binds n listeners, so every node can know the full peer
// list before any of them starts.
func listen(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	listeners, peers := make([]net.Listener, n), make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], peers[i] = l, l.Addr().String()
	}
	return listeners, peers
}

// startNode starts one server on l with the given peer list (nil: no
// cluster) and its own data and catalog directories, the data directory
// holding src as ds.pd.
func startNode(t *testing.T, l net.Listener, peers []string, src probsyn.Source) *clusterNode {
	t.Helper()
	dataDir := t.TempDir()
	var buf bytes.Buffer
	if err := probsyn.WriteDataset(&buf, src); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, "ds.pd"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		DataDir: dataDir, CatalogDir: t.TempDir(), Catalog: catalog.New(),
		Pool: engine.New(engine.Options{Workers: 2}), C: 0.5, Logf: t.Logf,
	}
	if peers != nil {
		cfg.Peers, cfg.Self = peers, l.Addr().String()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nd := &clusterNode{s: s, addr: l.Addr().String(),
		ts: &httptest.Server{Listener: l, Config: &http.Server{Handler: s.Handler()}}}
	nd.ts.Start()
	t.Cleanup(nd.stop)
	return nd
}

// stop closes the node's listener and drains its queues; stopping a
// stopped node does nothing.
func (nd *clusterNode) stop() {
	nd.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = nd.s.Shutdown(ctx)
}

// newCluster starts two nodes sharing one peer list and returns them as
// (the owner of "ds", the other node).
func newCluster(t *testing.T, src probsyn.Source) (owner, other *clusterNode) {
	t.Helper()
	listeners, peers := listen(t, 2)
	a, b := startNode(t, listeners[0], peers, src), startNode(t, listeners[1], peers, src)
	peer, elsewhere := a.s.owner("ds")
	if p2, _ := b.s.owner("ds"); p2 != peer {
		t.Fatalf("nodes disagree on the dataset owner: %q vs %q", peer, p2)
	}
	if elsewhere {
		return b, a
	}
	return a, b
}

// errorCode is the typed error code a response body carries, "" if none.
func errorCode(raw []byte) string {
	var bad ErrorBody
	_ = json.Unmarshal(raw, &bad)
	return bad.Error.Code
}

// ownedBy probes for a dataset name s's ring places on peer.
func ownedBy(t *testing.T, s *Server, peer string) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		// The varying part leads: FNV-1a mixes a trailing byte into the low
		// bits only, and the ring orders keys by the high ones.
		name := fmt.Sprintf("%d-probe", i)
		if p, _ := s.owner(name); p == peer {
			return name
		}
	}
	t.Fatalf("no probe dataset maps to %s", peer)
	return ""
}

// The cluster is one forwarding rule, so its test is one table: every
// request that names a dataset, sent to the node that does not own it,
// answers byte for byte what the same request answers on the owner of an
// identical cluster — successes and typed errors alike — and leaves
// nothing on the node that forwarded it.
func TestClusterForwarding(t *testing.T) {
	vp := valueDataset(24)
	ownerA, otherA := newCluster(t, vp) // driven through the non-owner
	ownerB, _ := newCluster(t, vp)      // driven through the owner
	item := ItemPDFWire{Entries: []FreqProbWire{{Freq: 4, Prob: 0.5}}}
	const read = "?dataset=ds&family=histogram&metric=SSE&budget=6"
	requests := []struct {
		name, path string
		body       any // nil: a GET
	}{
		{"build", "/v1/build", BuildRequest{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 6, Shards: 2, Wait: true}},
		{"sweep", "/v1/sweep", BuildRequest{Dataset: "ds", Family: "wavelet", Metric: "SAE", Budget: 3, Wait: true}},
		{"append", "/v1/append", MutateRequest{Dataset: "ds", Items: []ItemPDFWire{item, item}, Wait: true}},
		{"update", "/v1/update", MutateRequest{Dataset: "ds", I: 3, Item: &item, Wait: true}},
		{"estimate", "/v1/estimate" + read + "&i=25", nil},
		{"rangesum", "/v1/rangesum" + read + "&lo=2&hi=99", nil},
		{"ready build", "/v1/build", BuildRequest{Dataset: "ds", Family: "wavelet", Metric: "SAE", Budget: 2}},
		{"bad metric", "/v1/build", BuildRequest{Dataset: "ds", Family: "histogram", Metric: "XXX", Budget: 6}},
		{"bad body", "/v1/append", "not an object"},
		{"update out of domain", "/v1/update", MutateRequest{Dataset: "ds", I: 999, Item: &item, Wait: true}},
		{"unbuilt key", "/v1/estimate?dataset=ds&family=histogram&metric=SSE&budget=99&i=1", nil},
		{"out of domain", "/v1/estimate" + read + "&i=26", nil},
	}
	ask := func(nd *clusterNode, path string, body any) (int, []byte) {
		if body == nil {
			return getBody(t, nd.ts.URL+path)
		}
		resp, raw := postJSON(t, nd.ts.URL+path, body)
		return resp.StatusCode, raw
	}
	for _, rq := range requests {
		gotStatus, got := ask(otherA, rq.path, rq.body)
		wantStatus, want := ask(ownerB, rq.path, rq.body)
		if gotStatus != wantStatus || !bytes.Equal(got, want) {
			t.Fatalf("%s via the non-owner: %d %s\nvia the owner: %d %s", rq.name, gotStatus, got, wantStatus, want)
		}
		if rq.name == "build" && (gotStatus != http.StatusOK || !bytes.Contains(got, []byte(`"built"`))) {
			t.Fatalf("forwarded build: %d %s", gotStatus, got)
		}
	}

	// Everything landed on the owner — the files an offline rebuild over
	// the mutated dataset writes — and nothing on the node that forwarded:
	// no catalog entry, no file, no parsed dataset.
	des, err := os.ReadDir(otherA.s.cfg.CatalogDir)
	if err != nil {
		t.Fatal(err)
	}
	otherA.s.dsMu.RLock()
	parsed := len(otherA.s.datasets)
	otherA.s.dsMu.RUnlock()
	if len(des) != 0 || otherA.s.cfg.Catalog.Len() != 0 || parsed != 0 {
		t.Fatalf("the forwarding node holds %d files, %d entries, %d datasets", len(des), otherA.s.cfg.Catalog.Len(), parsed)
	}
	mutated := vp.Clone()
	mutated.Items = append(mutated.Items, item.toPDF(), item.toPDF())
	mutated.N = len(mutated.Items)
	mutated.Items[3] = item.toPDF()
	assertCatalogMatchesOfflineRebuild(t, ownerA.s.cfg.CatalogDir, mutated, "ds", 0.5)
	if ownerA.s.cfg.Catalog.Len() != 4 || ownerB.s.cfg.Catalog.Len() != 4 {
		t.Fatalf("owners catalog %d and %d keys, want the 4 built", ownerA.s.cfg.Catalog.Len(), ownerB.s.cfg.Catalog.Len())
	}

	// A batch is answered where it lands: on the owner it answers, on the
	// other node the op is not_found and says where the dataset lives.
	batch := query.BatchRequest{Ops: []query.Op{{
		BatchKey: query.BatchKey{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 6}, Op: query.OpEstimate, I: 25,
	}}}
	if _, one, _ := postQuery(t, ownerA.ts, batch); len(one.Results) != 1 || one.Results[0].Err != nil {
		t.Fatalf("batch on the owner: %+v", one.Results)
	}
	_, one, _ := postQuery(t, otherA.ts, batch)
	if len(one.Results) != 1 || one.Results[0].Err == nil || one.Results[0].Err.Code != CodeNotFound ||
		!strings.Contains(one.Results[0].Err.Message, "owned by peer "+ownerA.addr) {
		t.Fatalf("batch on the non-owner: %+v", one.Results)
	}

	// Owner down: each of the six forwards fails 502 peer_unavailable.
	ownerA.stop()
	for _, rq := range requests[:6] {
		if status, got := ask(otherA, rq.path, rq.body); status != http.StatusBadGateway || errorCode(got) != CodePeerUnavailable {
			t.Fatalf("%s with the owner down: %d %s", rq.name, status, got)
		}
	}
}

// A forward whose connection drops is retried only when it is a read: an
// append may already have been applied by the peer that went quiet, so it
// reaches the peer at most once and surfaces as 502.
func TestForwardRetriesOnlyReads(t *testing.T) {
	var requests atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if requests.Add(1) == 1 {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close() // the request was read; the answer never comes
			}
			return
		}
		fmt.Fprint(w, `{"answered":true}`)
	}))
	defer peer.Close()
	peerAddr := strings.TrimPrefix(peer.URL, "http://")
	listeners, self := listen(t, 1)
	nd := startNode(t, listeners[0], []string{self[0], peerAddr}, valueDataset(4))
	name := ownedBy(t, nd.s, peerAddr)

	resp, raw := postJSON(t, nd.ts.URL+"/v1/append", MutateRequest{
		Dataset: name, Items: []ItemPDFWire{{Entries: []FreqProbWire{{Freq: 1, Prob: 0.5}}}}, Wait: true})
	if resp.StatusCode != http.StatusBadGateway || errorCode(raw) != CodePeerUnavailable {
		t.Fatalf("dropped append: %d %s", resp.StatusCode, raw)
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("dropped append reached the peer %d times, want once", got)
	}
	requests.Store(0)
	status, body := getBody(t, nd.ts.URL+"/v1/estimate?dataset="+name+"&family=histogram&metric=SSE&budget=2&i=0")
	if status != http.StatusOK || string(body) != `{"answered":true}` {
		t.Fatalf("dropped estimate was not retried to an answer: %d %s", status, body)
	}
	if got := requests.Load(); got != 2 {
		t.Fatalf("dropped estimate reached the peer %d times, want twice", got)
	}
}

// Nodes whose -peers lists differ refuse each other's forwards instead of
// routing by two different rings, and a request that was forwarded once
// is served or refused where it lands, never forwarded again.
func TestSplitRingRefuses(t *testing.T) {
	listeners, peers := listen(t, 2)
	vp := valueDataset(4)
	x := startNode(t, listeners[0], peers, vp)
	y := startNode(t, listeners[1], append(peers[:2:2], "127.0.0.1:1"), vp)
	name := ownedBy(t, x.s, y.addr)
	estimate := "/v1/estimate?dataset=" + name + "&family=histogram&metric=SSE&budget=2&i=0"
	for _, path := range []string{"/v1/build", "/v1/append"} {
		resp, raw := postJSON(t, x.ts.URL+path, map[string]any{"dataset": name, "family": "histogram", "metric": "SSE", "budget": 2})
		if resp.StatusCode != http.StatusConflict || errorCode(raw) != CodeRingMismatch {
			t.Fatalf("%s across a split ring: %d %s", path, resp.StatusCode, raw)
		}
	}
	if status, raw := getBody(t, x.ts.URL+estimate); status != http.StatusConflict || errorCode(raw) != CodeRingMismatch {
		t.Fatalf("estimate across a split ring: %d %s", status, raw)
	}
	// What a node says to a request x forwarded: y and a node outside any
	// cluster refuse it; x itself serves it — its own 404, not y's 409 —
	// even though its ring places the dataset on y.
	ls, _ := listen(t, 1)
	lone := startNode(t, ls[0], nil, vp)
	for nd, want := range map[*clusterNode]int{y: http.StatusConflict, lone: http.StatusConflict, x: http.StatusNotFound} {
		req, err := http.NewRequest(http.MethodGet, nd.ts.URL+estimate, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(ringHeader, x.s.ring.Fingerprint())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("a request forwarded by x got %d from %s, want %d", resp.StatusCode, nd.addr, want)
		}
	}
}

func TestClusterConfigValidation(t *testing.T) {
	base := Config{
		DataDir: t.TempDir(), Catalog: catalog.New(), Pool: engine.New(engine.Options{Workers: 1}),
	}
	cfg := base
	cfg.Peers = []string{"a:1", "b:2"}
	cfg.Self = "c:3"
	if _, err := New(cfg); err == nil {
		t.Fatal("self outside the peer list accepted")
	}
	cfg = base
	cfg.Self = "a:1"
	if _, err := New(cfg); err == nil {
		t.Fatal("self without peers accepted")
	}
	cfg = base
	cfg.Peers = []string{"a:1", "a:1"}
	cfg.Self = "a:1"
	if _, err := New(cfg); err == nil {
		t.Fatal("duplicate peers accepted")
	}
}
