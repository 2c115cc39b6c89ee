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

// The server writes the flat file once, at graceful shutdown after its
// queues drain, and never past the deadline. A build removes a packed
// file (Publish's rule, not the server's), nothing puts it back while
// the server runs, and the shutdown pack covers what the jobs wrote,
// byte for byte a fresh PackBytes of the directory's .psyn files.
func TestServerPacksFlatAtShutdownOnly(t *testing.T) {
	catDir := t.TempDir()
	path := catalog.FlatPath(catDir)
	s, ts, _ := newValueFixture(t, Config{CatalogDir: catDir, FlatPath: path})
	if _, err := catalog.Pack(path, nil); err != nil {
		t.Fatal(err)
	}
	gone := func(what string) {
		t.Helper()
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("after %s the flat file is on disk (stat err = %v)", what, err)
		}
	}
	if resp, _, bad := postBuild(t, ts, BuildRequest{Dataset: "vds", Family: "histogram", Metric: "SSE", Budget: 4, Wait: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("build: status %d (%+v)", resp.StatusCode, bad)
	}
	gone("a build")
	item := ItemPDFWire{Entries: []FreqProbWire{{Freq: 2, Prob: 0.5}}}
	if resp, _, bad := postMutate(t, ts, "/v1/append", MutateRequest{Dataset: "vds", Items: []ItemPDFWire{item}, Wait: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d (%+v)", resp.StatusCode, bad)
	}
	gone("a mutation")

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	// A drained server given a spent deadline returns without packing.
	// (Which case the select takes is not fixed, so only the file is
	// checked.)
	_ = s.Shutdown(expired)
	gone("a shutdown past its deadline")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no flat file after a graceful shutdown: %v", err)
	}
	// Without a CatalogDir there are no files to pack.
	if _, err := New(Config{DataDir: t.TempDir(), Catalog: catalog.New(), Pool: engine.New(engine.Options{}), FlatPath: path}); err == nil {
		t.Fatal("New accepted a FlatPath without a CatalogDir")
	}
	disk := catalog.New()
	if _, err := disk.LoadDir(catDir); err != nil {
		t.Fatal(err)
	}
	want, err := catalog.PackBytes(disk.List())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || disk.Len() != 1 {
		t.Fatalf("the shutdown pack (%d bytes) is not a pack of the %d-file directory (%d bytes)", len(got), disk.Len(), len(want))
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
// relative-error metric, a quantized wavelet, a single build — booted
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
		{Dataset: "ds", Family: "histogram", Metric: "SAE", Budget: 6},
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
// file of version 2 — this layout, packed when one server's keeper, not
// the write path, removed it, so an offline write could leave it stale —
// boots through the codec with one warning, and the server's shutdown
// pack leaves a current file that covers the catalog: there is no reader
// for an old version because the file is re-derived at the first
// opportunity.
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
	// The same pack under version 2: the file size does not change.
	old := append([]byte(nil), want...)
	binary.LittleEndian.PutUint32(old[8:], 2)
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
		t.Fatalf("boot over a version 2 file: f=%v flatN=%d codecN=%d warned=%d, want nil/0/%d/1", f, flatN, codecN, warned, src.Len())
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
		t.Fatal("the shutdown pack did not replace the version 2 file with a pack of the catalog")
	}
}
