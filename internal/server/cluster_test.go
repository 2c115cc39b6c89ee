package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/gen"
	"probsyn/internal/query"
)

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// A single node accepts sharded builds too: the merged whole and every
// piece land in its own catalog, and the gathered read paths answer
// from the local pieces — the degenerate one-node cluster.
func TestShardedBuildSingleNode(t *testing.T) {
	s, ts, src := newFixture(t, Config{C: 0.5})
	const k = 4
	for _, tc := range []struct {
		family, metric string
	}{
		{catalog.FamilyHistogram, "SSE"},
		{catalog.FamilyWavelet, "SAE"},
	} {
		resp, ok, bad := postBuild(t, ts, BuildRequest{
			Dataset: "ds", Family: tc.family, Metric: tc.metric, Budget: 8, Shards: k, Wait: true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s sharded build: status %d, error %+v", tc.family, resp.StatusCode, bad)
		}
		if ok.Status != "built" {
			t.Fatalf("%s sharded build status %q", tc.family, ok.Status)
		}
		key, err := catalog.NewKey("ds", tc.family, tc.metric, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		whole, okc := s.cfg.Catalog.Get(key)
		if !okc {
			t.Fatalf("%s: merged whole not cataloged", tc.family)
		}
		for i := 0; i < k; i++ {
			pk, err := key.Piece(i, k)
			if err != nil {
				t.Fatal(err)
			}
			if _, okc := s.cfg.Catalog.Get(pk); !okc {
				t.Fatalf("%s: piece %s not cataloged", tc.family, pk)
			}
		}
		// Gathered range sums agree with the merged synopsis (up to FP
		// association: the gather sums per-shard partials).
		n := whole.Synopsis.Domain()
		for _, r := range [][2]int{{0, n - 1}, {5, 40}, {17, 17}, {0, 15}, {30, 50}} {
			var rr RangeSumResponse
			url := fmt.Sprintf("%s/v1/rangesum?dataset=ds&family=%s&metric=%s&budget=8&shards=%d&lo=%d&hi=%d",
				ts.URL, tc.family, tc.metric, k, r[0], r[1])
			if resp := getJSON(t, url, &rr); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s gathered rangesum status %d", tc.family, resp.StatusCode)
			}
			want := whole.Querier.RangeSum(r[0], r[1])
			if !relClose(rr.Sum, want, 1e-9) {
				t.Fatalf("%s gathered rangesum [%d,%d] = %v, merged says %v", tc.family, r[0], r[1], rr.Sum, want)
			}
		}
		// Estimates route to one piece and are bit-equal to the composite.
		for _, i := range []int{0, 13, 16, 47, n - 1} {
			var er EstimateResponse
			url := fmt.Sprintf("%s/v1/estimate?dataset=ds&family=%s&metric=%s&budget=8&shards=%d&i=%d",
				ts.URL, tc.family, tc.metric, k, i)
			if resp := getJSON(t, url, &er); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s sharded estimate status %d", tc.family, resp.StatusCode)
			}
			// Locate the owning piece and compare exactly.
			bounds := probsyn.ShardBounds(src.Domain(), k, tc.family == catalog.FamilyWavelet)
			sh := 0
			for bounds[sh+1] <= i {
				sh++
			}
			pk, _ := key.Piece(sh, k)
			pe, _ := s.cfg.Catalog.Get(pk)
			if want := pe.Querier.Estimate(i - bounds[sh]); er.Estimate != want {
				t.Fatalf("%s sharded estimate(%d) = %v, piece says %v", tc.family, i, er.Estimate, want)
			}
		}
		// The batch endpoint answers the same ops through the composite
		// querier, bit-equal to the gathered GETs (same summation order).
		breq := query.BatchRequest{Ops: []query.Op{
			{BatchKey: query.BatchKey{Dataset: "ds", Family: tc.family, Metric: tc.metric, Budget: 8, Shards: k}, Op: query.OpRangeSum, Lo: 5, Hi: 40},
			{BatchKey: query.BatchKey{Dataset: "ds", Family: tc.family, Metric: tc.metric, Budget: 8, Shards: k}, Op: query.OpEstimate, I: 13},
		}}
		body, _ := json.Marshal(breq)
		resp2, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var bresp query.BatchResponse
		if err := json.NewDecoder(resp2.Body).Decode(&bresp); err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if len(bresp.Results) != 2 || bresp.Results[0].Err != nil || bresp.Results[1].Err != nil {
			t.Fatalf("%s batch results %+v", tc.family, bresp.Results)
		}
		var rr RangeSumResponse
		getJSON(t, fmt.Sprintf("%s/v1/rangesum?dataset=ds&family=%s&metric=%s&budget=8&shards=%d&lo=5&hi=40",
			ts.URL, tc.family, tc.metric, k), &rr)
		if bresp.Results[0].Value != rr.Sum {
			t.Fatalf("%s batch rangesum %v != gathered %v", tc.family, bresp.Results[0].Value, rr.Sum)
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

// clusterNode is one of the two fixture servers of the cluster test.
type clusterNode struct {
	s    *Server
	ts   *httptest.Server
	addr string
}

// newCluster starts n servers on pre-bound listeners so every node
// knows the full peer list before it starts, writes the dataset to
// every node's data dir (only the owner strictly needs it), and
// returns the nodes.
func newCluster(t *testing.T, n int, src probsyn.Source) []*clusterNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		peers[i] = l.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		dataDir := t.TempDir()
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
		s, err := New(Config{
			DataDir:    dataDir,
			CatalogDir: t.TempDir(),
			Catalog:    catalog.New(),
			Pool:       engine.New(engine.Options{Workers: 2}),
			Peers:      peers,
			Self:       peers[i],
			C:          0.5,
			Logf:       t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: s.Handler()}}
		ts.Start()
		nodes[i] = &clusterNode{s: s, ts: ts, addr: peers[i]}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := nd.s.Shutdown(ctx); err != nil {
				t.Error(err)
			}
			cancel()
		}
	})
	return nodes
}

// The two-node acceptance path: a sharded build POSTed to either node
// forwards to the dataset's owner, pieces spread over the ring via
// /v1/accept, and gathered reads sent to either node answer correctly
// (forwarding to the owner, fanning out to piece owners).
func TestClusterTwoNodeShardedBuildAndGather(t *testing.T) {
	src := gen.MystiQLinkage(rand.New(rand.NewSource(7)), gen.DefaultMystiQ(64))
	nodes := newCluster(t, 2, src)
	const k = 4
	key, err := catalog.NewKey("ds", catalog.FamilyHistogram, "SSE", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].s.datasetOwner("ds")
	if o2 := nodes[1].s.datasetOwner("ds"); o2 != owner {
		t.Fatalf("nodes disagree on the dataset owner: %q vs %q", owner, o2)
	}
	nonOwner := nodes[0]
	ownerNode := nodes[1]
	if owner == nodes[0].addr {
		nonOwner, ownerNode = nodes[1], nodes[0]
	}
	// Build through the NON-owner: the request must forward.
	resp, ok, bad := postBuild(t, nonOwner.ts, BuildRequest{
		Dataset: "ds", Family: catalog.FamilyHistogram, Metric: "SSE", Budget: 8, Shards: k, Wait: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded sharded build: status %d, error %+v", resp.StatusCode, bad)
	}
	if ok.Status != "built" {
		t.Fatalf("forwarded sharded build status %q", ok.Status)
	}
	// The merged whole lives on the owner, and only there.
	if _, okc := ownerNode.s.cfg.Catalog.Get(key); !okc {
		t.Fatal("merged whole missing from the owner's catalog")
	}
	if _, okc := nonOwner.s.cfg.Catalog.Get(key); okc {
		t.Fatal("merged whole leaked into the non-owner's catalog")
	}
	// Every piece is cataloged at exactly the node the ring assigns.
	for i := 0; i < k; i++ {
		pk, err := key.Piece(i, k)
		if err != nil {
			t.Fatal(err)
		}
		want := nodes[0].s.pieceOwner(pk.Filename())
		for _, nd := range nodes {
			_, has := nd.s.cfg.Catalog.Get(pk)
			if has != (nd.addr == want) {
				t.Fatalf("piece %s: cataloged=%v on %s, owner is %s", pk, has, nd.addr, want)
			}
		}
	}
	// Offline reference: the same deterministic sharded build.
	ref, err := probsyn.BuildSharded(src, probsyn.SSE, 8, k)
	if err != nil {
		t.Fatal(err)
	}
	// Gathered reads through EITHER node agree with the reference
	// pieces (builds are bit-identical, gather sums in shard order).
	bounds := ref.Bounds
	for _, nd := range nodes {
		for _, r := range [][2]int{{0, 63}, {5, 40}, {17, 17}, {30, 50}} {
			want := 0.0
			for sh := 0; sh < k; sh++ {
				if bounds[sh] > r[1] || bounds[sh+1]-1 < r[0] {
					continue
				}
				llo, lhi := max(r[0], bounds[sh])-bounds[sh], min(r[1], bounds[sh+1]-1)-bounds[sh]
				want += ref.Pieces[sh].RangeSum(llo, lhi)
			}
			var rr RangeSumResponse
			url := fmt.Sprintf("%s/v1/rangesum?dataset=ds&family=histogram&metric=SSE&budget=8&shards=%d&lo=%d&hi=%d",
				nd.ts.URL, k, r[0], r[1])
			if resp := getJSON(t, url, &rr); resp.StatusCode != http.StatusOK {
				t.Fatalf("gathered rangesum via %s: status %d", nd.addr, resp.StatusCode)
			}
			if rr.Sum != want {
				t.Fatalf("gathered rangesum [%d,%d] via %s = %v, want %v", r[0], r[1], nd.addr, rr.Sum, want)
			}
		}
		for _, i := range []int{0, 13, 16, 47, 63} {
			sh := 0
			for bounds[sh+1] <= i {
				sh++
			}
			want := ref.Pieces[sh].Estimate(i - bounds[sh])
			var er EstimateResponse
			url := fmt.Sprintf("%s/v1/estimate?dataset=ds&family=histogram&metric=SSE&budget=8&shards=%d&i=%d",
				nd.ts.URL, k, i)
			if resp := getJSON(t, url, &er); resp.StatusCode != http.StatusOK {
				t.Fatalf("sharded estimate via %s: status %d", nd.addr, resp.StatusCode)
			}
			if er.Estimate != want {
				t.Fatalf("sharded estimate(%d) via %s = %v, want %v", i, nd.addr, er.Estimate, want)
			}
		}
		// The batch endpoint on this node assembles the composite
		// querier, fetching any remote piece over /v1/blob.
		breq := query.BatchRequest{Ops: []query.Op{
			{BatchKey: query.BatchKey{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 8, Shards: k}, Op: query.OpRangeSum, Lo: 5, Hi: 40},
		}}
		body, _ := json.Marshal(breq)
		resp2, err := http.Post(nd.ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var bresp query.BatchResponse
		if err := json.NewDecoder(resp2.Body).Decode(&bresp); err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if len(bresp.Results) != 1 || bresp.Results[0].Err != nil {
			t.Fatalf("batch via %s: %+v", nd.addr, bresp.Results)
		}
		want := 0.0
		for sh := 0; sh < k; sh++ {
			llo, lhi := max(5, bounds[sh])-bounds[sh], min(40, bounds[sh+1]-1)-bounds[sh]
			if bounds[sh] > 40 || bounds[sh+1]-1 < 5 {
				continue
			}
			want += ref.Pieces[sh].RangeSum(llo, lhi)
		}
		if bresp.Results[0].Value != want {
			t.Fatalf("batch rangesum via %s = %v, want %v", nd.addr, bresp.Results[0].Value, want)
		}
	}
	// Peer-down: kill the owner, then a build for a dataset it owns must
	// fail fast with peer_unavailable at the surviving node.
	ownerNode.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := ownerNode.s.Shutdown(ctx); err != nil {
		t.Error(err)
	}
	cancel()
	// Find a dataset name the dead node owns (the ring is deterministic,
	// so probe until one maps there).
	name := ""
	for i := 0; i < 64; i++ {
		cand := fmt.Sprintf("gone-%d", i)
		if nonOwner.s.datasetOwner(cand) == ownerNode.addr {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no probe dataset mapped to the dead peer")
	}
	resp3, _, bad3 := postBuild(t, nonOwner.ts, BuildRequest{Dataset: name, Family: "histogram", Metric: "SSE", Budget: 4, Wait: true})
	if resp3.StatusCode != http.StatusBadGateway || bad3.Error.Code != CodePeerUnavailable {
		t.Fatalf("build for a dead peer's dataset: status %d, error %+v", resp3.StatusCode, bad3)
	}
}

// The owner caches compiled remote pieces after the first gather, so
// steady-state gathered reads are purely local: once warmed, they keep
// answering (bit-identically) after every peer is gone.
func TestClusterGatherCachesRemotePieces(t *testing.T) {
	src := gen.MystiQLinkage(rand.New(rand.NewSource(7)), gen.DefaultMystiQ(64))
	nodes := newCluster(t, 2, src)
	const k = 4
	key, err := catalog.NewKey("ds", catalog.FamilyHistogram, "SSE", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].s.datasetOwner("ds")
	ownerNode, peerNode := nodes[1], nodes[0]
	if owner == nodes[0].addr {
		ownerNode, peerNode = nodes[0], nodes[1]
	}
	resp, ok, bad := postBuild(t, ownerNode.ts, BuildRequest{
		Dataset: "ds", Family: catalog.FamilyHistogram, Metric: "SSE", Budget: 8, Shards: k, Wait: true,
	})
	if resp.StatusCode != http.StatusOK || ok.Status != "built" {
		t.Fatalf("sharded build: status %d, error %+v", resp.StatusCode, bad)
	}
	remotePieces := 0
	for i := 0; i < k; i++ {
		pk, err := key.Piece(i, k)
		if err != nil {
			t.Fatal(err)
		}
		if ownerNode.s.pieceOwner(pk.Filename()) != ownerNode.addr {
			remotePieces++
		}
	}
	if remotePieces == 0 {
		t.Skip("ring placed every piece on the dataset owner; nothing remote to cache")
	}
	// Warm the cache with one full-domain gather through the owner.
	var warm RangeSumResponse
	url := fmt.Sprintf("%s/v1/rangesum?dataset=ds&family=histogram&metric=SSE&budget=8&shards=%d&lo=0&hi=63", ownerNode.ts.URL, k)
	if resp := getJSON(t, url, &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming gather: status %d", resp.StatusCode)
	}
	ownerNode.s.pieceMu.RLock()
	cached := len(ownerNode.s.pieceCache)
	ownerNode.s.pieceMu.RUnlock()
	if cached != remotePieces {
		t.Fatalf("owner cached %d pieces, want the %d remote ones", cached, remotePieces)
	}
	// Kill the piece-holding peer; warmed gathers must keep answering.
	peerNode.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := peerNode.s.Shutdown(ctx); err != nil {
		t.Error(err)
	}
	cancel()
	var after RangeSumResponse
	if resp := getJSON(t, url, &after); resp.StatusCode != http.StatusOK {
		t.Fatalf("gather after peer death: status %d", resp.StatusCode)
	}
	if after.Sum != warm.Sum {
		t.Fatalf("gather after peer death = %v, warmed answer was %v", after.Sum, warm.Sum)
	}
	// A rebuild on the owner drops the cache: with the peer dead, piece
	// redistribution must now fail rather than serve stale caches.
	resp2, _, _ := postBuild(t, ownerNode.ts, BuildRequest{
		Dataset: "ds", Family: catalog.FamilyHistogram, Metric: "SSE", Budget: 8, Shards: k, Wait: true,
	})
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("sharded rebuild succeeded with the piece owner dead")
	}
	ownerNode.s.pieceMu.RLock()
	left := len(ownerNode.s.pieceCache)
	ownerNode.s.pieceMu.RUnlock()
	if left != 0 {
		t.Fatalf("failed rebuild left %d cached pieces, want 0", left)
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
