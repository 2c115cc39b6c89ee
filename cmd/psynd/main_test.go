package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/gen"
)

// syncBuffer is a mutex-guarded buffer: the test reads psynd's stdout
// while the server goroutine is still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on ([^\s(]+)`)

// startPsynd runs the psynd run() seam on an ephemeral port and returns
// its base URL plus a stop func that triggers graceful shutdown and
// returns run's error.
func startPsynd(t *testing.T, args []string) (string, *syncBuffer, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()
	deadline := time.Now().Add(15 * time.Second)
	var addr string
	for addr == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("psynd exited before listening: %v\noutput:\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("psynd never reported its listen address:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop := func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			return errors.New("psynd did not shut down")
		}
	}
	return "http://" + addr, out, stop
}

func writeDataset(t *testing.T, dir string) probsyn.Source {
	t.Helper()
	src := gen.MystiQLinkage(rand.New(rand.NewSource(7)), gen.DefaultMystiQ(64))
	f, err := os.Create(filepath.Join(dir, "ds.pd"))
	if err != nil {
		t.Fatal(err)
	}
	if err := probsyn.WriteDataset(f, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return src
}

// The binary-level acceptance round trip: psynd builds both families
// through its shared pool, serves estimates equal to offline
// probsyn.Build results, persists envelopes byte-identical to the
// offline codec bytes, reloads its catalog on restart, and shuts down
// cleanly on context cancel.
func TestPsyndEndToEnd(t *testing.T) {
	dataDir, catDir := t.TempDir(), t.TempDir()
	src := writeDataset(t, dataDir)
	base, _, stop := startPsynd(t, []string{"-data", dataDir, "-catalog", catDir, "-max-builds", "1"})

	build := func(family, metric string, budget int) {
		t.Helper()
		body := fmt.Sprintf(`{"dataset":"ds","family":%q,"metric":%q,"budget":%d,"wait":true}`, family, metric, budget)
		resp, err := http.Post(base+"/v1/build", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s build: status %d", family, resp.StatusCode)
		}
	}
	build("histogram", "SSE", 8)
	build("wavelet", "SAE", 8)

	offline := map[string]probsyn.Synopsis{}
	for family, opts := range map[string][]probsyn.BuildOption{
		"histogram": {probsyn.WithParams(probsyn.Params{C: 0.5})},
		"wavelet":   {probsyn.WithParams(probsyn.Params{C: 0.5}), probsyn.WithWavelet()},
	} {
		m := probsyn.SSE
		if family == "wavelet" {
			m = probsyn.SAE
		}
		syn, err := probsyn.Build(src, m, 8, opts...)
		if err != nil {
			t.Fatal(err)
		}
		offline[family] = syn
	}

	for family, metric := range map[string]string{"histogram": "SSE", "wavelet": "SAE"} {
		for i := 0; i < src.Domain(); i += 11 {
			url := fmt.Sprintf("%s/v1/estimate?dataset=ds&family=%s&metric=%s&budget=8&i=%d", base, family, metric, i)
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			var er struct {
				Estimate float64 `json:"estimate"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if want := offline[family].Estimate(i); er.Estimate != want {
				t.Fatalf("%s: served Estimate(%d) = %v, offline %v", family, i, er.Estimate, want)
			}
		}
		// Replica byte-interchangeability: the persisted envelope equals
		// the offline marshal of the same build.
		key, err := catalog.NewKey("ds", family, metric, 8, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		onDisk, err := os.ReadFile(filepath.Join(catDir, key.Filename()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := probsyn.MarshalSynopsis(offline[family])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, want) {
			t.Fatalf("%s: persisted envelope differs from offline bytes", family)
		}
	}

	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// Restart against the same catalog: the persisted synopses serve
	// without rebuilding.
	base2, out2, stop2 := startPsynd(t, []string{"-data", dataDir, "-catalog", catDir})
	if !strings.Contains(out2.String(), "loaded 2 synopses") {
		t.Fatalf("restart did not preload the catalog:\n%s", out2.String())
	}
	resp, err := http.Get(base2 + "/v1/synopses")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Synopses []json.RawMessage `json:"synopses"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Synopses) != 2 {
		t.Fatalf("restarted server lists %d synopses, want 2", len(list.Synopses))
	}
	if err := stop2(); err != nil {
		t.Fatalf("graceful shutdown after restart: %v", err)
	}
}

func TestRunRequiresDataDir(t *testing.T) {
	if err := run(context.Background(), nil, &bytes.Buffer{}); err == nil {
		t.Fatal("run with no -data succeeded")
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	if err := run(context.Background(), []string{"-h"}, &bytes.Buffer{}); err != nil {
		t.Fatalf("-h returned %v", err)
	}
}

func TestRunUnknownFlagIsParseError(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}, &bytes.Buffer{}); !errors.Is(err, errParse) {
		t.Fatalf("unknown flag returned %v, want errParse", err)
	}
}

var pprofRE = regexp.MustCompile(`pprof on ([^\s(]+)`)

// pprofAddr waits for psynd to report its -pprof listener's address.
func pprofAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if m := pprofRE.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("psynd never reported its pprof address:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPsyndPprofListener: -pprof serves the profiler on its own
// listener — profile endpoints answer there and are absent from the
// query surface.
func TestPsyndPprofListener(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir)
	base, out, stop := startPsynd(t, []string{"-data", dir, "-pprof", "127.0.0.1:0"})
	defer func() {
		if err := stop(); err != nil {
			t.Error(err)
		}
	}()
	paddr := pprofAddr(t, out)
	resp, err := http.Get("http://" + paddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: %d", resp.StatusCode)
	}
	// The profiler must not leak onto the serving address.
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served on the query listener")
	}
}

// TestPsyndClosesStalledConnections: a client that stops inside its
// request line is disconnected by the server once the header timeout
// passes, on both listeners, and a complete request on another
// connection is answered while it stalls.
func TestPsyndClosesStalledConnections(t *testing.T) {
	old := readHeaderTimeout
	readHeaderTimeout = 200 * time.Millisecond
	t.Cleanup(func() { readHeaderTimeout = old })
	base, out, stop := startPsynd(t, []string{"-data", t.TempDir(), "-pprof", "127.0.0.1:0"})
	for _, addr := range []string{strings.TrimPrefix(base, "http://"), pprofAddr(t, out)} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("GET /v1/syno")); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(base + "/v1/synopses")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("well-formed request beside a stalled one: status %d", resp.StatusCode)
		}
		// The read must end because the server hung up, not because this
		// deadline (far beyond the header timeout) ran out.
		if err := conn.SetReadDeadline(time.Now().Add(15 * time.Second)); err != nil {
			t.Fatal(err)
		}
		var ne net.Error
		if _, err := io.ReadAll(conn); errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("%s: a connection stalled in its request line was still open after 15 s", addr)
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// reservePort binds an ephemeral port and releases it, returning the
// address for a server about to start. The tiny race (something else
// grabbing the port between close and listen) is acceptable in tests —
// cluster mode needs the full peer list before any node starts.
func reservePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// Two psynd processes with the same -peers list form a cluster: a build
// POSTed to either node lands on the dataset's owner alone, a read of the
// key answers byte-identically through either node, and both shut down
// cleanly. (internal/server's TestClusterForwarding is the table of every
// forwarded endpoint; this is the flag wiring.)
func TestPsyndClusterTwoNodes(t *testing.T) {
	addrs := []string{reservePort(t), reservePort(t)}
	peers := strings.Join(addrs, ",")
	urls, catalogs := make([]string, 2), make([]string, 2)
	stops := make([]func() error, 2)
	for i, addr := range addrs {
		dataDir := t.TempDir()
		writeDataset(t, dataDir)
		catalogs[i] = t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		out := &syncBuffer{}
		done := make(chan error, 1)
		args := []string{"-addr", addr, "-data", dataDir, "-catalog", catalogs[i], "-peers", peers}
		go func() { done <- run(ctx, args, out) }()
		deadline := time.Now().Add(15 * time.Second)
		for !strings.Contains(out.String(), "listening on") {
			select {
			case err := <-done:
				t.Fatalf("psynd %s exited before listening: %v\noutput:\n%s", addr, err, out.String())
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("psynd %s never listened:\n%s", addr, out.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
		if !strings.Contains(out.String(), "cluster mode, 2 peers") {
			t.Fatalf("psynd %s did not report cluster mode:\n%s", addr, out.String())
		}
		urls[i] = "http://" + addr
		stops[i] = func() error { cancel(); return <-done }
	}
	defer func() {
		for i, stop := range stops {
			if stop == nil {
				continue
			}
			if err := stop(); err != nil {
				t.Errorf("node %d shutdown: %v", i, err)
			}
		}
	}()

	body := `{"dataset":"ds","family":"histogram","metric":"SSE","budget":8,"shards":2,"wait":true}`
	resp, err := http.Post(urls[0]+"/v1/build", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"bound":`) {
		t.Fatalf("sharded build: status %d: %s", resp.StatusCode, raw)
	}
	files := 0
	for _, dir := range catalogs {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files += len(des)
	}
	if files != 1 {
		t.Fatalf("a sharded build left %d files across the two catalogs, want the owner's one", files)
	}
	var answers [2][]byte
	for i, u := range urls {
		resp, err := http.Get(u + "/v1/rangesum?dataset=ds&family=histogram&metric=SSE&budget=8&lo=5&hi=40")
		if err != nil {
			t.Fatal(err)
		}
		answers[i], _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rangesum via %s: status %d: %s", u, resp.StatusCode, answers[i])
		}
	}
	if !bytes.Equal(answers[0], answers[1]) {
		t.Fatalf("the two nodes answer differently:\n%s\n%s", answers[0], answers[1])
	}
	// Clean shutdown of both nodes (the deferred stops check errors);
	// run them now so failures attribute to this point.
	for i, stop := range stops {
		if err := stop(); err != nil {
			t.Errorf("node %d shutdown: %v", i, err)
		}
		stops[i] = nil
	}
}

func TestRunRejectsSelfWithoutPeers(t *testing.T) {
	err := run(context.Background(), []string{"-data", t.TempDir(), "-self", "x:1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-peers") {
		t.Fatalf("err = %v", err)
	}
}

// -flat drives the whole replica-restart story at the binary level:
// a first run builds and (on graceful shutdown) packs the flat file, a
// restart boots from it with one index read — reporting "N flat, 0 codec" — and
// the flat-booted catalog serves bit-identical estimates to the codec
// path.
func TestPsyndFlatBoot(t *testing.T) {
	dataDir, catDir := t.TempDir(), t.TempDir()
	src := writeDataset(t, dataDir)

	base, _, stop := startPsynd(t, []string{"-data", dataDir, "-catalog", catDir, "-flat"})
	body := `{"dataset":"ds","family":"histogram","metric":"SSE","budget":8,"wait":true}`
	resp, err := http.Post(base+"/v1/build", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build: status %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// Graceful shutdown runs the keeper's final synchronous pack.
	if _, err := os.Stat(catalog.FlatPath(catDir)); err != nil {
		t.Fatalf("no flat file after graceful shutdown: %v", err)
	}

	base2, out2, stop2 := startPsynd(t, []string{"-data", dataDir, "-catalog", catDir, "-flat"})
	if !strings.Contains(out2.String(), "(1 flat, 0 codec)") {
		t.Fatalf("restart did not boot from the flat file:\n%s", out2.String())
	}
	syn, err := probsyn.Build(src, probsyn.SSE, 8, probsyn.WithParams(probsyn.Params{C: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < src.Domain(); i += 7 {
		url := fmt.Sprintf("%s/v1/estimate?dataset=ds&family=histogram&metric=SSE&budget=8&i=%d", base2, i)
		r, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var er struct {
			Estimate float64 `json:"estimate"`
		}
		if err := json.NewDecoder(r.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if want := syn.Estimate(i); er.Estimate != want {
			t.Fatalf("flat-served Estimate(%d) = %v, offline %v", i, er.Estimate, want)
		}
	}
	if err := stop2(); err != nil {
		t.Fatalf("graceful shutdown after flat boot: %v", err)
	}
}

// -flat is a catalog-directory feature; without -catalog there is
// nothing to pack or boot from.
func TestRunFlatRequiresCatalog(t *testing.T) {
	err := run(context.Background(), []string{"-data", t.TempDir(), "-flat"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-flat requires -catalog") {
		t.Fatalf("err = %v, want -flat requires -catalog", err)
	}
}
