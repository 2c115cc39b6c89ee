package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"

	"probsyn/internal/query"
)

// TestRunAgainstStubServer drives the whole harness against a stub that
// answers everything 200, checking the scenarios run, the batch body is
// a valid 100-op request, and the output is one well-formed entry per
// line with p50 <= p99.
func TestRunAgainstStubServer(t *testing.T) {
	var batches atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			var req query.BatchRequest
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(r.Body); err != nil {
				t.Error(err)
			}
			if err := query.DecodeBatch(buf.Bytes(), &req); err != nil {
				t.Errorf("batch body does not decode: %v", err)
			} else if len(req.Ops) != 100 {
				t.Errorf("batch has %d ops, want 100", len(req.Ops))
			}
			batches.Add(1)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	out := filepath.Join(t.TempDir(), "lb.json")
	err := run([]string{
		"-addr", srv.URL, "-duration", "50ms", "-conns", "2", "-domain", "16", "-out", out,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if batches.Load() == 0 {
		t.Fatal("no /v1/query batches reached the server")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	entryRE := regexp.MustCompile(`\{"name": "(Loadbench\w+)", "iters": (\d+), "ns_per_op": (\d+), "p50_ns": (\d+), "p99_ns": (\d+), "qps": [0-9.]+\}`)
	matches := entryRE.FindAllStringSubmatch(string(data), -1)
	if len(matches) != 3 {
		t.Fatalf("want 3 result entries, got %d in:\n%s", len(matches), data)
	}
	want := []string{"LoadbenchEstimate", "LoadbenchRangeSum", "LoadbenchQueryBatch100"}
	for i, m := range matches {
		if m[1] != want[i] {
			t.Errorf("entry %d: name %q, want %q", i, m[1], want[i])
		}
		p50, _ := strconv.Atoi(m[4])
		p99, _ := strconv.Atoi(m[5])
		if p50 <= 0 || p99 < p50 {
			t.Errorf("%s: implausible percentiles p50=%d p99=%d", m[1], p50, p99)
		}
	}
}

// TestRunRejectsFailingServer pins that a non-200 fails the measurement
// instead of timing error responses.
func TestRunRejectsFailingServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	}))
	defer srv.Close()
	err := run([]string{"-addr", srv.URL, "-duration", "50ms", "-conns", "1"}, nil)
	if err == nil {
		t.Fatal("run succeeded against a 404-everything server")
	}
}
