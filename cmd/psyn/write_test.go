package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	"probsyn/internal/server"
)

// TestWritePathsAgree is the write-side twin of internal/server's
// TestReadPathsAgree: for every (family, metric, q) and every kind of job
// that writes a catalog — a build, a sweep inside the domain, a sweep past
// it, an append, an update — the directory a psynd handler leaves equals,
// file for file and byte for byte, the directory the offline psyn path
// writes, and every file in it
// is MarshalSynopsis(probsyn.Build(...)) of its key over the final data.
// Served and offline files are interchangeable because both sides run
// catalog.Publish and catalog.ExtractAndPublish, not because they were
// compared; this test is what notices if one side stops.
func TestWritePathsAgree(t *testing.T) {
	const (
		n        = 16 // a power of two, so the padded wavelet domain is n
		moreN    = 3
		updateI  = 2
		inDomain = 5     // budget of the build and sweep rows
		past     = n + 4 // the sweep row whose budgets past n repeat the Bmax synopsis
	)
	type spec struct {
		name, family, metric string
		q                    int
	}
	configs := []spec{
		{"histogram-SSE", catalog.FamilyHistogram, "SSE", 0},
		{"histogram-SSRE", catalog.FamilyHistogram, "SSRE", 0}, // keyed by c: psyn's -c default is the server's C below
		{"histogram-MAE", catalog.FamilyHistogram, "MAE", 0},
		{"wavelet-SSE", catalog.FamilyWavelet, "SSE", 0},
		{"wavelet-SAE", catalog.FamilyWavelet, "SAE", 0},
		{"wavelet-SAE-q4", catalog.FamilyWavelet, "SAE", 4},
	}
	jobs := []string{"build", "sweep", "sweep-past-domain", "append", "update"}

	for _, cfg := range configs {
		for _, job := range jobs {
			t.Run(cfg.name+"/"+job, func(t *testing.T) {
				dir := t.TempDir()
				dataDir, served, offline := filepath.Join(dir, "data"), filepath.Join(dir, "served"), filepath.Join(dir, "offline")
				for _, d := range []string{dataDir, served, offline} {
					if err := os.MkdirAll(d, 0o755); err != nil {
						t.Fatal(err)
					}
				}
				servedData, _ := writeValueDataset(t, dataDir, "vds.pd", n) // psynd rewrites this copy
				basePath, base := writeValueDataset(t, dir, "vds.pd", n)
				morePath, more := writeValueDataset(t, dir, "more.pd", moreN)

				srv, err := server.New(server.Config{
					DataDir: dataDir, CatalogDir: served, Catalog: catalog.New(),
					Pool: engine.New(engine.Options{Workers: 2}), C: 0.5, Logf: t.Logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					if err := srv.Shutdown(ctx); err != nil {
						t.Error(err)
					}
				}()
				// post sends one wait:true request through the handler and
				// decodes its 200 response into out.
				post := func(path string, body, out any) {
					t.Helper()
					raw, err := json.Marshal(body)
					if err != nil {
						t.Fatal(err)
					}
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
					if rec.Code != http.StatusOK {
						t.Fatalf("POST %s %s: %d %s", path, raw, rec.Code, rec.Body)
					}
					if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
						t.Fatal(err)
					}
				}
				// build asks psynd for sp's synopsis at budget; psyn, below, is
				// the offline side of the same job.
				build := func(sp spec, path string, budget int) {
					t.Helper()
					var resp server.BuildResponse
					post(path, server.BuildRequest{Dataset: "vds", Family: sp.family, Metric: sp.metric,
						Budget: budget, Quantize: sp.q, Wait: true}, &resp)
				}
				psyn := func(sp spec, input string, budget int, extra ...string) string {
					t.Helper()
					args := []string{"-input", input, "-dataset", "vds", "-metric", sp.metric, "-buckets", fmt.Sprint(budget)}
					if sp.family == catalog.FamilyWavelet {
						args = append(args, "-wavelet", "-coeffs", fmt.Sprint(budget))
					}
					if sp.q > 0 {
						args = append(args, "-quantize", fmt.Sprint(sp.q))
					}
					var out bytes.Buffer
					if err := run(append(args, extra...), &out); err != nil {
						t.Fatalf("psyn %v: %v", append(args, extra...), err)
					}
					return out.String()
				}
				// keyFile is where a plain psyn build lands to sit beside
				// swept files: -out takes a file there, not a directory.
				keyFile := func(sp spec, budget int) string {
					key, err := catalog.NewKeyQ("vds", sp.family, sp.metric, budget, 0.5, sp.q)
					if err != nil {
						t.Fatal(err)
					}
					return filepath.Join(offline, key.Filename())
				}

				final := base // the data every file must be a build over
				switch job {
				case "build":
					build(cfg, "/v1/build", inDomain)
					psyn(cfg, basePath, inDomain, "-out", keyFile(cfg, inDomain))
				case "sweep", "sweep-past-domain":
					budget := inDomain
					if job == "sweep-past-domain" {
						budget = past
					}
					build(cfg, "/v1/sweep", budget)
					out := psyn(cfg, basePath, budget, "-sweep", "-out", offline)
					// The printed curve stops at the clamped Bmax; the files do not.
					if !strings.Contains(out, "budget,terms,cost\n1,") || strings.Contains(out, fmt.Sprintf("\n%d,", n+1)) ||
						!strings.Contains(out, fmt.Sprintf("saved %d synopses", budget)) {
						t.Fatalf("sweep output:\n%s", out)
					}
				case "append", "update":
					// Two frontier groups in one directory: the row's, swept and
					// with one budget above the sweep (so its budgets are not
					// 1..max), and one key of the other family. The append runs
					// on freshly built frontiers on both sides, the update on
					// psynd's retained ones.
					other := spec{family: catalog.FamilyWavelet, metric: "SSE"}
					if cfg.family == catalog.FamilyWavelet {
						other.family = catalog.FamilyHistogram
					}
					build(cfg, "/v1/sweep", 3)
					build(cfg, "/v1/build", inDomain)
					build(other, "/v1/build", 2)
					seed := func(input string) {
						psyn(cfg, input, 3, "-sweep", "-out", offline)
						psyn(cfg, input, inDomain, "-out", keyFile(cfg, inDomain))
						psyn(other, input, 2, "-out", keyFile(other, 2))
					}
					seed(basePath)
					items := make([]server.ItemPDFWire, len(more.Items))
					for i, it := range more.Items {
						for _, e := range it.Entries {
							items[i].Entries = append(items[i].Entries, server.FreqProbWire{Freq: e.Freq, Prob: e.Prob})
						}
					}
					var mresp server.MutateResponse
					post("/v1/append", server.MutateRequest{Dataset: "vds", Items: items, Wait: true}, &mresp)
					if mresp.Status != "applied" || mresp.Domain != n+moreN || mresp.Republished != 5 {
						t.Fatalf("append response: %+v", mresp)
					}
					final = &probsyn.ValuePDF{N: n + moreN, Items: append(append([]probsyn.ItemPDF(nil), base.Items...), more.Items...)}
					// The grown domain is served.
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf(
						"/v1/estimate?dataset=vds&family=%s&metric=%s&budget=3&q=%d&i=%d", cfg.family, cfg.metric, cfg.q, n+moreN-1), nil))
					if rec.Code != http.StatusOK {
						t.Fatalf("estimate on an appended item: %d %s", rec.Code, rec.Body)
					}
					if job == "append" {
						merged := filepath.Join(dir, "merged.pd")
						out := psyn(cfg, basePath, 1, "-append", morePath, "-out", offline, "-save-data", merged)
						if !strings.Contains(out, "revalidated 5 synopses") {
							t.Fatalf("append output:\n%s", out)
						}
						// Both sides persisted the same merged dataset.
						got, err := os.ReadFile(merged)
						want, werr := os.ReadFile(servedData)
						if err != nil || werr != nil || !bytes.Equal(got, want) {
							t.Fatalf("-save-data file differs from psynd's rewritten dataset (%v, %v)", err, werr)
						}
						break
					}
					post("/v1/update", server.MutateRequest{Dataset: "vds", I: updateI, Item: &items[0], Wait: true}, &mresp)
					if mresp.Domain != n+moreN || mresp.Republished != 5 {
						t.Fatalf("update response: %+v", mresp)
					}
					final.Items[updateI] = more.Items[0]
					// psyn has no -update: the offline path is a rebuild over
					// the dataset psynd persisted.
					seed(servedData)
				}

				des, err := os.ReadDir(served)
				if err != nil {
					t.Fatal(err)
				}
				odes, err := os.ReadDir(offline)
				if err != nil {
					t.Fatal(err)
				}
				var names, onames []string
				for _, de := range des {
					names = append(names, de.Name())
				}
				for _, de := range odes {
					onames = append(onames, de.Name())
				}
				if len(names) == 0 || strings.Join(names, " ") != strings.Join(onames, " ") {
					t.Fatalf("psynd's catalog directory holds\n  %v\nthe offline one\n  %v", names, onames)
				}
				for _, name := range names {
					got, err := os.ReadFile(filepath.Join(served, name))
					if err != nil {
						t.Fatal(err)
					}
					off, err := os.ReadFile(filepath.Join(offline, name))
					if err != nil {
						t.Fatal(err)
					}
					key, err := catalog.ParseFilename(name)
					if err != nil {
						t.Fatal(err)
					}
					m, opts, err := key.BuildOptions()
					if err != nil {
						t.Fatal(err)
					}
					syn, err := probsyn.Build(final, m, key.Budget, opts...)
					if err != nil {
						t.Fatal(err)
					}
					want, err := probsyn.MarshalSynopsis(syn)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) || !bytes.Equal(off, want) {
						t.Errorf("%s: served == Build %v, offline == Build %v", name, bytes.Equal(got, want), bytes.Equal(off, want))
					}
				}
			})
		}
	}
}

// TestWritersInvalidateFlat: catalog.flat is an index derived from the
// .psyn files beside it, and the write path keeps it so for every writer,
// not just for one server's jobs. Each row starts from a packed directory
// and runs one writer that rewrites, adds or withdraws keys; a boot
// through catalog.BootDir must then serve every key byte-equal to its
// .psyn file, and no key that has none.
func TestWritersInvalidateFlat(t *testing.T) {
	const n = 16
	// serve runs fn against a server over catDir booted the way psynd
	// boots one. With no flatPath nothing of the server's own removes or
	// packs the flat file; with one, its graceful shutdown packs it.
	serve := func(t *testing.T, dir, catDir, flatPath string, fn func(post func(path string, body any) int)) {
		t.Helper()
		dataDir := filepath.Join(dir, "data")
		if err := os.Mkdir(dataDir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeValueDataset(t, dataDir, "vds.pd", n)
		cat := catalog.New()
		f, _, _, err := catalog.BootDir(cat, catDir, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		if f != nil {
			defer f.Close()
		}
		srv, err := server.New(server.Config{DataDir: dataDir, CatalogDir: catDir, Catalog: cat, FlatPath: flatPath,
			Pool: engine.New(engine.Options{Workers: 2}), C: 0.5, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		fn(func(path string, body any) int {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
			return rec.Code
		})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	appendBody := server.MutateRequest{Dataset: "vds", Wait: true, Items: []server.ItemPDFWire{
		{Entries: []server.FreqProbWire{{Freq: 3, Prob: 0.5}}}, {Entries: []server.FreqProbWire{{Freq: 1, Prob: 1}}}}}

	for _, tc := range []struct {
		name  string
		write func(t *testing.T, dir, catDir string)
	}{
		{"psyn -sweep -out", func(t *testing.T, dir, catDir string) {
			grown, _ := writeValueDataset(t, dir, "grown.pd", n+5)
			if err := run([]string{"-input", grown, "-dataset", "vds", "-metric", "SSE", "-buckets", "4", "-sweep", "-out", catDir}, io.Discard); err != nil {
				t.Fatal(err)
			}
		}},
		{"psyn -append -out", func(t *testing.T, dir, catDir string) {
			more, _ := writeValueDataset(t, dir, "more.pd", 3)
			if err := run([]string{"-input", filepath.Join(dir, "vds.pd"), "-append", more, "-dataset", "vds", "-out", catDir}, io.Discard); err != nil {
				t.Fatal(err)
			}
		}},
		{"psynd build and append", func(t *testing.T, dir, catDir string) {
			serve(t, dir, catDir, "", func(post func(string, any) int) {
				build := server.BuildRequest{Dataset: "vds", Family: "histogram", Metric: "MAE", Budget: 2, Wait: true}
				if code := post("/v1/build", build); code != http.StatusOK {
					t.Fatalf("build: status %d", code)
				}
				if code := post("/v1/append", appendBody); code != http.StatusOK {
					t.Fatalf("append: status %d", code)
				}
			})
		}},
		{"psyn -append and rm under a packing psynd", func(t *testing.T, dir, catDir string) {
			// The offline writers change the directory while a server
			// that packs at shutdown runs on its old copies of the keys.
			serve(t, dir, catDir, catalog.FlatPath(catDir), func(func(string, any) int) {
				more, _ := writeValueDataset(t, dir, "more.pd", 3)
				if err := run([]string{"-input", filepath.Join(dir, "vds.pd"), "-append", more, "-dataset", "vds", "-out", catDir}, io.Discard); err != nil {
					t.Fatal(err)
				}
				key, err := catalog.NewKey("vds", catalog.FamilyWavelet, "SAE", 2, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Remove(filepath.Join(catDir, key.Filename())); err != nil {
					t.Fatal(err)
				}
			})
			if _, err := os.Stat(catalog.FlatPath(catDir)); err != nil {
				t.Fatalf("no flat file after a graceful shutdown: %v", err)
			}
		}},
		{"psynd mutation withdraws", func(t *testing.T, dir, catDir string) {
			// A directory where the first wavelet key's file was: its
			// republish fails, and it and the keys after it are withdrawn.
			key, err := catalog.NewKey("vds", catalog.FamilyWavelet, "SAE", 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			blocked := filepath.Join(catDir, key.Filename())
			if err := os.Remove(blocked); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			serve(t, dir, catDir, "", func(post func(string, any) int) {
				if code := post("/v1/append", appendBody); code != http.StatusInternalServerError {
					t.Fatalf("append over a blocked key: status %d, want 500", code)
				}
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			catDir := filepath.Join(dir, "cat")
			basePath, _ := writeValueDataset(t, dir, "vds.pd", n)
			for _, args := range [][]string{
				{"-metric", "SSE", "-buckets", "3", "-sweep"},
				{"-wavelet", "-metric", "SAE", "-coeffs", "2", "-sweep"},
			} {
				if err := run(append([]string{"-input", basePath, "-dataset", "vds", "-out", catDir}, args...), io.Discard); err != nil {
					t.Fatal(err)
				}
			}
			if err := run([]string{"-pack", catDir}, io.Discard); err != nil {
				t.Fatal(err)
			}
			tc.write(t, dir, catDir)

			files := map[catalog.Key][]byte{}
			des, err := os.ReadDir(catDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range des {
				key, err := catalog.ParseFilename(de.Name())
				if err != nil || de.IsDir() {
					continue
				}
				if files[key], err = os.ReadFile(filepath.Join(catDir, de.Name())); err != nil {
					t.Fatal(err)
				}
			}
			cat := catalog.New()
			f, _, _, err := catalog.BootDir(cat, catDir, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if f != nil {
				defer f.Close()
			}
			for key, file := range files {
				e, ok := cat.Get(key)
				if !ok {
					t.Fatalf("%v has a file but is not served", key)
				}
				blob, err := probsyn.MarshalSynopsis(e.Synopsis)
				if err != nil || !bytes.Equal(blob, file) {
					t.Fatalf("%v: the served synopsis is not its file's (%v)", key, err)
				}
			}
			for _, e := range cat.List() {
				if _, ok := files[e.Key]; !ok {
					t.Fatalf("%v is served but has no file: withdrawn, or never written", e.Key)
				}
			}
		})
	}
}
