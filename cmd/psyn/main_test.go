package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/gen"
	"probsyn/internal/server"
	"probsyn/internal/wavelet"
)

// writeDataset materializes a small generated dataset in the probsyn text
// format and returns its path.
func writeDataset(t *testing.T, dir string) (string, probsyn.Source) {
	t.Helper()
	src := gen.MystiQLinkage(rand.New(rand.NewSource(7)), gen.DefaultMystiQ(64))
	path := filepath.Join(dir, "data.pd")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := probsyn.WriteDataset(f, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, src
}

// TestRunRoundTrip drives the CLI end to end for both synopsis families
// through the binary envelope: build with -out, reload with -in, and assert
// the persisted synopsis answers Estimate and ErrorCost exactly like the
// synopsis the same build produces in-process.
func TestRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dataset, src := writeDataset(t, dir)

	cases := []struct {
		name    string
		file    string
		loadTag string
		args    []string
		ref     func() (probsyn.Synopsis, error)
	}{
		{
			name: "histogram-binary", file: "h.syn", loadTag: "histogram synopsis",
			args: []string{"-input", dataset, "-metric", "SSE", "-buckets", "8", "-parallelism", "2"},
			ref: func() (probsyn.Synopsis, error) {
				return probsyn.Build(src, probsyn.SSE, 8, probsyn.WithParallelism(2))
			},
		},
		{
			name: "wavelet-binary", file: "w.syn", loadTag: "wavelet synopsis",
			args: []string{"-input", dataset, "-wavelet", "-metric", "SAE", "-coeffs", "8", "-parallelism", "2"},
			ref: func() (probsyn.Synopsis, error) {
				return probsyn.Build(src, probsyn.SAE, 8, probsyn.WithWavelet(), probsyn.WithParallelism(2))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(dir, tc.file)
			var buildOut bytes.Buffer
			if err := run(append(tc.args, "-out", out), &buildOut); err != nil {
				t.Fatalf("build: %v", err)
			}
			if !strings.Contains(buildOut.String(), "saved") {
				t.Fatalf("build output missing save line:\n%s", buildOut.String())
			}

			var loadOut bytes.Buffer
			if err := run([]string{"-in", out}, &loadOut); err != nil {
				t.Fatalf("load: %v", err)
			}
			if !strings.Contains(loadOut.String(), tc.loadTag) {
				t.Fatalf("load output missing %q:\n%s", tc.loadTag, loadOut.String())
			}

			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := probsyn.UnmarshalSynopsis(data)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := tc.ref()
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Terms() != ref.Terms() {
				t.Fatalf("loaded %d terms, built %d", loaded.Terms(), ref.Terms())
			}
			if got, want := loaded.ErrorCost(), ref.ErrorCost(); got != want && math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("loaded ErrorCost %v, built %v", got, want)
			}
			for i := 0; i < src.Domain(); i++ {
				if got, want := loaded.Estimate(i), ref.Estimate(i); got != want && math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
					t.Fatalf("Estimate(%d): loaded %v, built %v", i, got, want)
				}
			}
		})
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("-h returned %v, want nil", err)
	}
}

func TestRunUnknownFlagIsParseError(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-bogus"}, &out)
	if !errors.Is(err, errParse) {
		t.Fatalf("unknown flag returned %v, want errParse", err)
	}
}

func TestRunRequiresInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("run with no -input and no -in succeeded")
	}
}

func TestRunRejectsUnknownMetric(t *testing.T) {
	dir := t.TempDir()
	dataset, _ := writeDataset(t, dir)
	var out bytes.Buffer
	if err := run([]string{"-input", dataset, "-metric", "XXX"}, &out); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

// -sweep needs the exact DP; heuristic modes are rejected.
func TestRunSweepRejectsHeuristics(t *testing.T) {
	dir := t.TempDir()
	dataset, _ := writeDataset(t, dir)
	for _, extra := range [][]string{{"-approx", "0.5"}, {"-equidepth"}} {
		args := append([]string{"-input", dataset, "-metric", "SSE", "-sweep"}, extra...)
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("sweep with %v succeeded, want error", extra)
		}
	}
}

// -quantize routes the wavelet build through the quantized restricted DP,
// reporting its additive error bound. It requires -wavelet.
func TestRunQuantize(t *testing.T) {
	dir := t.TempDir()
	dataset, _ := writeDataset(t, dir)
	if err := run([]string{"-input", dataset, "-metric", "SAE", "-quantize", "4"}, io.Discard); err == nil {
		t.Fatal("-quantize without -wavelet succeeded, want error")
	}
	if err := run([]string{"-input", dataset, "-wavelet", "-metric", "SAE", "-coeffs", "3", "-quantize", "1"}, io.Discard); err == nil {
		t.Fatal("quantized restricted build with q=1 succeeded, want error (grids need q >= 2)")
	}
	var out bytes.Buffer
	if err := run([]string{"-input", dataset, "-wavelet", "-metric", "SAE", "-coeffs", "3", "-quantize", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "quantized restricted (q=4)") || !strings.Contains(out.String(), "of the restricted optimum") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
	// SSE-fixed is a histogram metric, exact or quantized, built or swept.
	for _, extra := range [][]string{nil, {"-quantize", "4"}, {"-sweep", "-out", filepath.Join(dir, "cat")}} {
		args := append([]string{"-input", dataset, "-wavelet", "-metric", "SSE-fixed", "-coeffs", "3"}, extra...)
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "ask for SSE") {
			t.Fatalf("%v: %v, want a refusal naming SSE", extra, err)
		}
	}
}

// -v prints one dp: line per DP build — bucket-cost evals for a histogram,
// point-error evals for a coefficient-tree wavelet — the same at every
// -parallelism and after -sweep, and nothing for a build that runs no DP
// (the SSE wavelet greedy, an equi-depth histogram).
func TestRunVerbose(t *testing.T) {
	dir := t.TempDir()
	dataset, _ := writeDataset(t, dir)
	dpLine := func(t *testing.T, args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{"-input", dataset, "-v"}, args...), &out); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "dp: ") {
				return line
			}
		}
		return ""
	}
	for _, row := range []struct {
		name  string
		args  []string
		evals string
	}{
		{"histogram", []string{"-metric", "SSRE", "-buckets", "3"}, "bucket-cost evals"},
		{"wavelet", []string{"-wavelet", "-metric", "SAE", "-coeffs", "3"}, "point-error evals"},
	} {
		t.Run(row.name, func(t *testing.T) {
			serial := dpLine(t, append(row.args, "-parallelism", "1")...)
			if !strings.Contains(serial, "split candidates") || !strings.Contains(serial, row.evals) {
				t.Fatalf("-v printed %q", serial)
			}
			if par := dpLine(t, append(row.args, "-parallelism", "2")...); par != serial {
				t.Fatalf("-parallelism 2 printed %q, -parallelism 1 %q", par, serial)
			}
			if sweep := dpLine(t, append(row.args, "-sweep")...); sweep != serial {
				t.Fatalf("-sweep printed %q, the plain build %q", sweep, serial)
			}
		})
	}
	for _, args := range [][]string{{"-wavelet", "-metric", "SSE", "-coeffs", "3"}, {"-equidepth", "-buckets", "3"}} {
		if line := dpLine(t, args...); line != "" {
			t.Fatalf("%v -v printed %q, want nothing", args, line)
		}
	}
}

// writeValueDataset materializes a small value-model dataset (the model
// live maintenance is defined over).
func writeValueDataset(t *testing.T, dir, name string, n int) (string, *probsyn.ValuePDF) {
	t.Helper()
	vp := &probsyn.ValuePDF{N: n, Items: make([]probsyn.ItemPDF, n)}
	for i := 0; i < n; i++ {
		vp.Items[i] = probsyn.ItemPDF{Entries: []probsyn.FreqProb{
			{Freq: float64(i % 4), Prob: 0.5},
			{Freq: float64(1 + i%2), Prob: 0.25},
		}}
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := probsyn.WriteDataset(f, vp); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, vp
}

// TestRunAppendValidation: -append needs a catalog dir with files for
// the dataset and a value-model input.
func TestRunAppendValidation(t *testing.T) {
	dir := t.TempDir()
	basePath, _ := writeValueDataset(t, dir, "vds.pd", 8)
	morePath, _ := writeValueDataset(t, dir, "more.pd", 2)
	var out bytes.Buffer
	if err := run([]string{"-input", basePath, "-append", morePath}, &out); err == nil {
		t.Fatal("-append without -out accepted")
	}
	empty := filepath.Join(dir, "empty")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-input", basePath, "-append", morePath, "-out", empty}, &out); err == nil {
		t.Fatal("-append against an empty catalog accepted")
	}
	basicPath, _ := writeDataset(t, dir)
	if err := run([]string{"-input", basicPath, "-append", morePath, "-out", empty}, &out); err == nil {
		t.Fatal("-append over a basic-model input accepted")
	}
}

// TestRunQuery: -query answers a batch request file offline from a
// catalog directory, with per-op errors, and writes only the canonical
// response JSON (exact float64 values, nothing else on stdout).
func TestRunQuery(t *testing.T) {
	dir := t.TempDir()
	dataset, src := writeDataset(t, dir)
	catDir := filepath.Join(dir, "catalog")
	for _, args := range [][]string{
		{"-input", dataset, "-metric", "SSE", "-buckets", "4", "-sweep", "-dataset", "ds", "-out", catDir},
		{"-input", dataset, "-wavelet", "-metric", "SAE", "-coeffs", "3", "-sweep", "-dataset", "ds", "-out", catDir},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
	}
	reqPath := filepath.Join(dir, "batch.json")
	batch := `{"ops":[
		{"dataset":"ds","family":"histogram","metric":"SSE","budget":4,"op":"estimate","i":7},
		{"dataset":"ds","family":"wavelet","metric":"SAE","budget":3,"op":"rangesum","lo":2,"hi":20},
		{"dataset":"ds","family":"histogram","metric":"SSE","budget":99,"op":"estimate","i":0}
	]}`
	if err := os.WriteFile(reqPath, []byte(batch), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-query", reqPath, "-out", catDir}, &out); err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Results []struct {
			Value float64 `json:"value"`
			Err   *struct {
				Code string `json:"code"`
			} `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatalf("stdout is not exactly the response JSON: %v\n%s", err, out.String())
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	// Reference answers from offline builds over the same dataset.
	hs, err := probsyn.Build(src, probsyn.SSE, 4)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := probsyn.Build(src, probsyn.SAE, 3, probsyn.WithWavelet(), probsyn.WithParams(probsyn.Params{C: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resp.Results[0].Value, hs.Estimate(7); got != want || resp.Results[0].Err != nil {
		t.Fatalf("op 0: %v, want %v", got, want)
	}
	if got, want := resp.Results[1].Value, ws.RangeSum(2, 20); got != want || resp.Results[1].Err != nil {
		t.Fatalf("op 1: %v, want %v", got, want)
	}
	if e := resp.Results[2].Err; e == nil || e.Code != "not_found" {
		t.Fatalf("op 2: want not_found, got %+v", resp.Results[2])
	}
	// A second run over the same catalog produces the same bytes
	// (determinism underpinning TestRunQueryMatchesServedBatch).
	var again bytes.Buffer
	if err := run([]string{"-query", reqPath, "-out", catDir}, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Fatal("query response not deterministic")
	}
}

func TestRunQueryValidation(t *testing.T) {
	dir := t.TempDir()
	reqPath := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(reqPath, []byte(`{"ops":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-query", reqPath}, io.Discard); err == nil || !strings.Contains(err.Error(), "-out") {
		t.Fatalf("missing -out accepted: %v", err)
	}
	if err := run([]string{"-query", reqPath, "-out", dir}, io.Discard); err == nil {
		t.Fatal("empty batch accepted")
	}
	if err := os.WriteFile(reqPath, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-query", reqPath, "-out", dir}, io.Discard); err == nil {
		t.Fatal("malformed batch accepted")
	}
}

// TestRunSharded: a -shards build prints its bound, and -out f saves the
// merged synopsis to f and nothing else, byte-identical to an in-process
// BuildSharded: no catalog key, since a key names the unsharded build.
func TestRunSharded(t *testing.T) {
	dir := t.TempDir()
	dataset, src := writeDataset(t, dir)
	outDir := filepath.Join(dir, "out")
	if err := os.Mkdir(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(outDir, "merged.syn")
	var out bytes.Buffer
	if err := run([]string{"-input", dataset, "-metric", "SSE", "-buckets", "8", "-shards", "4", "-dataset", "ds", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "suboptimality bound") || strings.Contains(out.String(), "shard,start,end") {
		t.Fatalf("no bound line, or a per-shard table, in output:\n%s", out.String())
	}
	ref, err := probsyn.BuildSharded(src, probsyn.SSE, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := probsyn.MarshalSynopsis(ref.Synopsis)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("merged file differs from the in-process build (%v)", err)
	}
	if des, err := os.ReadDir(outDir); err != nil || len(des) != 1 || des[0].Name() != "merged.syn" {
		t.Fatalf("-shards 4 -out %s left %v in its directory, want just that file (%v)", path, des, err)
	}
}

// TestRunShardedSameAtEveryParallelism: -parallelism only sets how many
// shards solve at once (1 builds them in turn, 0 one per CPU), so stdout
// and the saved merged synopsis are the same at every setting.
func TestRunShardedSameAtEveryParallelism(t *testing.T) {
	dir := t.TempDir()
	dataset, _ := writeDataset(t, dir)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"histogram-SAE", []string{"-metric", "SAE", "-buckets", "8"}},
		{"histogram-MAE", []string{"-metric", "MAE", "-buckets", "8"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wantOut string
			var wantFile []byte
			for _, par := range []string{"1", "2", "0"} {
				path := filepath.Join(dir, tc.name+"-p"+par+".syn")
				var out bytes.Buffer
				args := append([]string{"-input", dataset, "-shards", "4", "-parallelism", par, "-out", path}, tc.args...)
				if err := run(args, &out); err != nil {
					t.Fatalf("-parallelism %s: %v", par, err)
				}
				file, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				stdout := strings.ReplaceAll(out.String(), path, "OUT")
				if wantFile == nil {
					wantOut, wantFile = stdout, file
					continue
				}
				if stdout != wantOut {
					t.Fatalf("-parallelism %s printed\n%s\n-parallelism 1 printed\n%s", par, stdout, wantOut)
				}
				if !bytes.Equal(file, wantFile) {
					t.Fatalf("-parallelism %s saved different bytes than -parallelism 1", par)
				}
			}
		})
	}
}

// TestRunQueryMatchesServedBatch: psyn -query and psynd's POST /v1/query
// answer through the same resolver and evaluator, so over one catalog
// directory — keys built plain and swept, a "shards" member neither
// reads, and every kind of per-op error — stdout is byte for
// byte the served response body. The server
// here has no datasets at all: reads need none. (The GET endpoints are
// held to the batch by internal/server's TestReadPathsAgree.)
func TestRunQueryMatchesServedBatch(t *testing.T) {
	dir := t.TempDir()
	dataset, _ := writeDataset(t, dir)
	catDir := filepath.Join(dir, "catalog")
	for _, args := range [][]string{
		{"-wavelet", "-metric", "SAE", "-coeffs", "3", "-sweep"},
		{"-metric", "SSRE", "-buckets", "3", "-sweep"}, // keyed by the default -c
		{"-metric", "SSE", "-buckets", "8", "-sweep"},
		{"-wavelet", "-metric", "SSE", "-coeffs", "6", "-sweep"},
	} {
		args = append([]string{"-input", dataset, "-dataset", "ds", "-out", catDir}, args...)
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	// A sweep past a 6-item dataset's domain: budgets 7..9 are files too.
	tiny, _ := writeValueDataset(t, dir, "tiny.pd", 6)
	if err := run([]string{"-input", tiny, "-dataset", "tiny", "-out", catDir, "-metric", "SSE", "-buckets", "9", "-sweep"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// And one synopsis whose numbers are finite and whose sums are not.
	huge, err := catalog.NewKey("huge", catalog.FamilyWavelet, "SSE", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	overflowing := &wavelet.Synopsis{N: 4, Indices: []int{0, 1}, Values: []float64{math.MaxFloat64, math.MaxFloat64}}
	if _, err := catalog.WriteFile(filepath.Join(catDir, huge.Filename()), overflowing); err != nil {
		t.Fatal(err)
	}
	batch := `{"ops":[
		{"dataset":"ds","family":"histogram","metric":"SSE","budget":4,"op":"estimate","i":7},
		{"dataset":"ds","family":"wavelet","metric":"SAE","budget":3,"op":"rangesum","lo":-2,"hi":2000},
		{"dataset":"ds","family":"histogram","metric":"SSRE","budget":3,"op":"rangesum","lo":2,"hi":20},
		{"dataset":"ds","family":"histogram","metric":"SSRE","budget":3,"c":0.5,"op":"estimate","i":1},
		{"dataset":"ds","family":"histogram","metric":"SSE","budget":8,"op":"rangesum","lo":5,"hi":40},
		{"dataset":"ds","family":"histogram","metric":"SSE","budget":8,"shards":4,"op":"estimate","i":33},
		{"dataset":"ds","family":"wavelet","metric":"SSE","budget":6,"op":"rangesum","lo":31,"hi":32},
		{"dataset":"tiny","family":"histogram","metric":"SSE","budget":9,"op":"estimate","i":5},
		{"dataset":"ds","family":"histogram","metric":"SSE","budget":9,"op":"estimate","i":0},
		{"dataset":"ds","family":"histogram","metric":"SSE","budget":99,"op":"estimate","i":0},
		{"dataset":"ds","family":"histogram","metric":"SSRE","budget":3,"c":0.25,"op":"estimate","i":0},
		{"dataset":"ds","family":"histogram","metric":"SSE","budget":4,"op":"estimate","i":-1},
		{"dataset":"ds","family":"histogram","metric":"SSE","budget":8,"op":"rangesum","lo":9,"hi":3},
		{"dataset":"ds","family":"wavelet","metric":"SAE","budget":3,"op":"rangesum","lo":5000,"hi":6000},
		{"dataset":"ds","family":"histogram","metric":"SSE","budget":4,"op":"median","i":1},
		{"dataset":"ds","family":"sketch","metric":"SSE","budget":4,"op":"estimate","i":1},
		{"dataset":"ds","family":"histogram","metric":"SAE","budget":4,"q":4,"op":"estimate","i":1},
		{"dataset":"huge","family":"wavelet","metric":"SSE","budget":2,"op":"estimate","i":0}
	]}`
	reqPath := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(reqPath, []byte(batch), 0o644); err != nil {
		t.Fatal(err)
	}
	var offline bytes.Buffer
	if err := run([]string{"-query", reqPath, "-out", catDir}, &offline); err != nil {
		t.Fatal(err)
	}

	cat := catalog.New()
	if _, err := cat.LoadDir(catDir); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DataDir: t.TempDir(), Catalog: cat, Pool: engine.Serial(), C: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(batch)))
	if rec.Code != http.StatusOK {
		t.Fatalf("served batch: status %d: %s", rec.Code, rec.Body)
	}
	if !bytes.Equal(offline.Bytes(), rec.Body.Bytes()) {
		t.Fatalf("psyn -query and POST /v1/query disagree:\noffline %s\nserved  %s", offline.Bytes(), rec.Body)
	}
	// The bytes agree about something: eight answers, then ten errors.
	var resp struct {
		Results []struct {
			Err *struct {
				Code string `json:"code"`
			} `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(offline.Bytes(), &resp); err != nil || len(resp.Results) != 18 {
		t.Fatalf("%d results (%v):\n%s", len(resp.Results), err, offline.Bytes())
	}
	wantCodes := []string{"", "", "", "", "", "", "", "", "not_found", "not_found", "not_found",
		"bad_request", "bad_request", "bad_request", "bad_request", "bad_request", "bad_request", "internal"}
	for i, r := range resp.Results {
		got := ""
		if r.Err != nil {
			got = r.Err.Code
		}
		if got != wantCodes[i] {
			t.Errorf("op %d: error code %q, want %q\n%s", i, got, wantCodes[i], offline.Bytes())
		}
	}
}

func TestRunShardedValidation(t *testing.T) {
	dir := t.TempDir()
	dataset, _ := writeDataset(t, dir)
	catDir := filepath.Join(dir, "catalog")
	// A wavelet is not sharded, exact, greedy or quantized: the flag check
	// says so, and points at -quantize, before anything is built.
	wavelet := "drop -wavelet; past the exact DP's reach, use -quantize"
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"equidepth":        {[]string{"-equidepth"}, "drop -equidepth/-approx"},
		"sweep":            {[]string{"-sweep"}, "drop -shards"},
		"wavelet":          {[]string{"-wavelet", "-metric", "SAE"}, wavelet},
		"wavelet-SSE":      {[]string{"-wavelet", "-metric", "SSE"}, wavelet},
		"wavelet-quantize": {[]string{"-wavelet", "-metric", "SAE", "-quantize", "4"}, wavelet},
	} {
		t.Run(name, func(t *testing.T) {
			args := append([]string{"-input", dataset, "-coeffs", "8", "-shards", "4", "-out", catDir}, tc.args...)
			if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%v: %v, want an error containing %q", tc.args, err, tc.want)
			}
			if _, err := os.Stat(catDir); !os.IsNotExist(err) {
				t.Fatalf("refused build left %s (%v)", catDir, err)
			}
		})
	}
}

// -pack builds the flat file psynd boots from. The output must be
// deterministic and byte-identical to the pack a server writes at
// shutdown for the same logical catalog — that identity is what lets
// replicas rsync or content-address the file.
func TestRunPack(t *testing.T) {
	dir := t.TempDir()
	dataset, _ := writeDataset(t, dir)
	outDir := filepath.Join(dir, "cat")
	if err := run([]string{"-input", dataset, "-metric", "SSE", "-buckets", "4",
		"-sweep", "-dataset", "ds", "-out", outDir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-pack", outDir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "packed 4 synopses") {
		t.Fatalf("pack report:\n%s", out.String())
	}
	path := catalog.FlatPath(outDir)
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := catalog.OpenFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 4 {
		t.Fatalf("flat file holds %d entries, want 4", f.Len())
	}
	f.Close()

	// Byte identity with the in-process pack a server's shutdown writes.
	c := catalog.New()
	if _, err := c.LoadDir(outDir); err != nil {
		t.Fatal(err)
	}
	want, err := catalog.PackBytes(c.List())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Fatal("-pack output differs from an in-process PackBytes of the same catalog")
	}

	// Determinism across repeated invocations.
	if err := run([]string{"-pack", outDir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("re-pack changed the flat file bytes")
	}
}
