package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/hist"
	"probsyn/internal/query"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The keeper's core discipline, exercised directly: JobStart removes the
// flat file before work, JobEnd re-packs at quiescence with bytes equal
// to a fresh PackBytes of the catalog, and Close runs a final
// synchronous pack.
func TestFlatKeeperLifecycle(t *testing.T) {
	cat := catalog.New()
	key, err := catalog.NewKey("ds", catalog.FamilyHistogram, "SSE", 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	h := &hist.Histogram{N: 4, Buckets: []hist.Bucket{{Start: 0, End: 3, Rep: 1}}}
	if _, _, err := cat.Put(key, h); err != nil {
		t.Fatal(err)
	}
	path := catalog.FlatPath(t.TempDir())
	if _, err := catalog.Pack(path, cat.List()); err != nil {
		t.Fatal(err)
	}

	fk := newFlatKeeper(path, cat, t.Logf)
	fk.JobStart()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("flat file still present during an active job (stat err = %v)", err)
	}
	fk.JobEnd()
	waitFor(t, "quiescent re-pack", func() bool {
		_, err := os.Stat(path)
		return err == nil
	})
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := catalog.PackBytes(cat.List())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-packed flat file differs from a fresh pack of the catalog")
	}

	// A job that mutates the catalog: after Close, the final pack must
	// reflect the mutation, not the earlier snapshot.
	fk.JobStart()
	key2, err := catalog.NewKey("ds", catalog.FamilyHistogram, "SSE", 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	h2 := &hist.Histogram{N: 4, Buckets: []hist.Bucket{
		{Start: 0, End: 1, Rep: 1}, {Start: 2, End: 3, Rep: 2},
	}}
	if _, _, err := cat.Put(key2, h2); err != nil {
		t.Fatal(err)
	}
	fk.JobEnd()
	fk.Close()
	f, err := catalog.OpenFlat(path)
	if err != nil {
		t.Fatalf("final pack unreadable: %v", err)
	}
	defer f.Close()
	if f.Len() != 2 {
		t.Fatalf("final pack has %d entries, want 2", f.Len())
	}
}

// The server wiring end to end: a waited build invalidates the flat
// file, and the background keeper re-packs it once the queue is
// quiescent, covering the new entry.
func TestServerFlatRepackAfterBuild(t *testing.T) {
	catDir := t.TempDir()
	path := catalog.FlatPath(catDir)
	_, ts, _ := newFixture(t, Config{CatalogDir: catDir, FlatPath: path})

	resp, ok, bad := postBuild(t, ts, BuildRequest{
		Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4, Wait: true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("build: status %d (%+v)", resp.StatusCode, bad)
	}
	if ok.Status != "built" {
		t.Fatalf("build status %q, want built", ok.Status)
	}

	waitFor(t, "post-build re-pack", func() bool {
		_, err := os.Stat(path)
		return err == nil
	})
	f, err := catalog.OpenFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Len() != 1 {
		t.Fatalf("re-packed flat file has %d entries, want 1", f.Len())
	}
	// The persisted envelope beside it is what the flat file packs, so a
	// replica booting this directory gets both paths in agreement.
	des, err := os.ReadDir(catDir)
	if err != nil {
		t.Fatal(err)
	}
	psyn := 0
	for _, de := range des {
		if filepath.Ext(de.Name()) == ".psyn" {
			psyn++
		}
	}
	if psyn != 1 {
		t.Fatalf("catalog dir holds %d .psyn envelopes, want 1", psyn)
	}
}

// getBody GETs url and returns the status and the raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestBootPathsAgree: one catalog directory — both families, a
// relative-error metric, a quantized wavelet, a sharded build — booted
// through the codec and through its flat file is the same catalog:
// every key's querier answers Float64bits-equal, /v1/synopses lists
// identically, each entry's synopsis re-encodes to the .psyn file's bytes
// either way, and a batch over every key comes back byte-identical.
func TestBootPathsAgree(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newFixture(t, Config{CatalogDir: dir, C: 0.5})
	for _, req := range []BuildRequest{
		{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 5},
		{Dataset: "ds", Family: "histogram", Metric: "SSRE", Budget: 3},
		{Dataset: "ds", Family: "wavelet", Metric: "SSE", Budget: 4},
	} {
		req.Wait = true
		if resp, _, bad := postSweep(t, ts, req); resp.StatusCode != 200 {
			t.Fatalf("sweep %+v: status %d (%+v)", req, resp.StatusCode, bad)
		}
	}
	for _, req := range []BuildRequest{
		{Dataset: "ds", Family: "wavelet", Metric: "SAE", Budget: 4, Quantize: 4},
		{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 6, Shards: 2},
	} {
		req.Wait = true
		if resp, _, bad := postBuild(t, ts, req); resp.StatusCode != 200 {
			t.Fatalf("build %+v: status %d (%+v)", req, resp.StatusCode, bad)
		}
	}

	codec := catalog.New()
	n, err := codec.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := catalog.Pack(catalog.FlatPath(dir), codec.List()); err != nil {
		t.Fatal(err)
	}
	flat := catalog.New()
	f, flatN, codecN, err := catalog.BootDir(flat, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if f == nil || flatN != n || codecN != 0 {
		t.Fatalf("flat boot: f=%v, %d flat, %d codec; want %d flat, 0 codec", f, flatN, codecN, n)
	}
	defer f.Close()

	_, codecTS, _ := newFixture(t, Config{CatalogDir: dir, Catalog: codec, C: 0.5})
	_, flatTS, _ := newFixture(t, Config{CatalogDir: dir, Catalog: flat, C: 0.5})

	// The listing first, so that on the flat side List is what first
	// touches every entry.
	_, wantList := getBody(t, codecTS.URL+"/v1/synopses")
	_, gotList := getBody(t, flatTS.URL+"/v1/synopses")
	if !bytes.Equal(gotList, wantList) {
		t.Fatalf("/v1/synopses differs:\nflat  %s\ncodec %s", gotList, wantList)
	}

	var batch query.BatchRequest
	for _, want := range codec.List() {
		key := want.Key
		got, ok := flat.Get(key)
		if !ok {
			t.Fatalf("flat boot lost %v", key)
		}
		dom := want.Querier.Domain()
		if got.Querier.Domain() != dom {
			t.Fatalf("%v: domain %d, codec %d", key, got.Querier.Domain(), dom)
		}
		for i := 0; i < dom; i++ {
			g, w := got.Querier.Estimate(i), want.Querier.Estimate(i)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%v: Estimate(%d) = %v, codec %v", key, i, g, w)
			}
			g, w = got.Querier.RangeSum(i/2, i), want.Querier.RangeSum(i/2, i)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%v: RangeSum(%d, %d) = %v, codec %v", key, i/2, i, g, w)
			}
		}

		file, err := os.ReadFile(filepath.Join(dir, key.Filename()))
		if err != nil {
			t.Fatal(err)
		}
		for boot, e := range map[string]*catalog.Entry{"codec": want, "flat": got} {
			blob, err := probsyn.MarshalSynopsis(e.Synopsis)
			if err != nil || !bytes.Equal(blob, file) {
				t.Fatalf("%v: the %s boot's synopsis re-encodes to %d bytes (%v); the .psyn file has %d", key, boot, len(blob), err, len(file))
			}
		}

		bk := query.BatchKey{Dataset: key.Dataset, Family: key.Family, Metric: key.Metric, Budget: key.Budget, C: key.C, Q: key.Q}
		batch.Ops = append(batch.Ops,
			query.Op{BatchKey: bk, Op: query.OpEstimate, I: dom / 3},
			query.Op{BatchKey: bk, Op: query.OpRangeSum, Lo: 1, Hi: dom - 2})
	}
	_, wantBatch := postJSON(t, codecTS.URL+"/v1/query", batch)
	_, gotBatch := postJSON(t, flatTS.URL+"/v1/query", batch)
	if !bytes.Equal(gotBatch, wantBatch) {
		t.Fatalf("/v1/query differs:\nflat  %s\ncodec %s", gotBatch, wantBatch)
	}
	if bytes.Contains(wantBatch, []byte(`"error"`)) {
		t.Fatalf("batch over cataloged keys answered an error: %s", wantBatch)
	}
}

// TestServerReplacesOldFlatVersion: a catalog directory holding a flat
// file of the version this format replaced boots through the codec with
// one warning, and the server's shutdown pack leaves a current file that
// covers the catalog — there is no reader for the old layout because the
// file is re-derived at the first opportunity.
func TestServerReplacesOldFlatVersion(t *testing.T) {
	dir := t.TempDir()
	src := catalog.New()
	for b := 1; b <= 3; b++ {
		key, err := catalog.NewKey("ds", catalog.FamilyHistogram, "SSE", b, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := &hist.Histogram{N: 4, Buckets: []hist.Bucket{{Start: 0, End: 3, Rep: float64(b)}}}
		if _, _, err := src.Put(key, h); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range src.List() {
		if _, err := src.Save(dir, e); err != nil {
			t.Fatal(err)
		}
	}
	want, err := catalog.PackBytes(src.List())
	if err != nil {
		t.Fatal(err)
	}
	// A version 1 header page: same magic, version field and header
	// checksum as today's, over an empty index.
	old := make([]byte, 4096)
	copy(old, want[:8])
	binary.LittleEndian.PutUint32(old[8:], 1)
	binary.LittleEndian.PutUint32(old[60:], crc32.ChecksumIEEE(old[:60]))
	path := catalog.FlatPath(dir)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	cat := catalog.New()
	warned := 0
	f, flatN, codecN, err := catalog.BootDir(cat, dir, func(string, ...any) { warned++ })
	if err != nil {
		t.Fatal(err)
	}
	if f != nil || flatN != 0 || codecN != src.Len() || warned != 1 {
		t.Fatalf("boot over a version 1 file: f=%v flatN=%d codecN=%d warned=%d, want nil/0/%d/1", f, flatN, codecN, warned, src.Len())
	}
	s, err := New(Config{
		DataDir: t.TempDir(), CatalogDir: dir, Catalog: cat, FlatPath: path,
		Pool: engine.New(engine.Options{Workers: 1}), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the shutdown pack did not replace the version 1 file with a pack of the catalog")
	}
}
