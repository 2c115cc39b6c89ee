package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/gen"
	"probsyn/internal/pdata"
	"probsyn/internal/query"
	"probsyn/internal/server"
)

// serverC is the sanity constant the benchmark's servers run with
// (psynd's default).
const serverC = 0.5

// readFixture is the read-side catalog on disk plus the offline synopses
// it was written from — the references served answers are held to.
type readFixture struct {
	dir   string
	keys  []catalog.Key
	refs  map[catalog.Key]probsyn.Synopsis
	bytes int64 // everything under dir
}

func serveSources(seed int64) (names []string, srcs []probsyn.Source) {
	return []string{"sensor-a", "sensor-b", "mystiq", "tpch"}, []probsyn.Source{
		sensor(seed, "serve/sensor-a", serveN),
		sensor(seed, "serve/sensor-b", serveN),
		gen.MystiQLinkage(rngFor(seed, "serve/mystiq"), gen.DefaultMystiQ(serveN)),
		gen.TPCHLineitem(rngFor(seed, "serve/tpch"), gen.DefaultTPCH(serveN, 4*serveN)),
	}
}

// buildReadFixture builds the 64 SSE entries offline (one sweep per
// dataset and family, every budget extracted from it), writes them as
// codec files, and with pack also writes catalog.flat beside them.
func buildReadFixture(seed int64, dir string, pack bool) (*readFixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx := &readFixture{dir: dir, refs: map[catalog.Key]probsyn.Synopsis{}}
	names, srcs := serveSources(seed)
	maxB := serveBudgets[len(serveBudgets)-1]
	for d, src := range srcs {
		for _, family := range []string{catalog.FamilyHistogram, catalog.FamilyWavelet} {
			opts := []probsyn.BuildOption{}
			if family == catalog.FamilyWavelet {
				opts = append(opts, probsyn.WithWavelet())
			}
			fr, err := probsyn.BuildSweep(src, probsyn.SSE, maxB, opts...)
			if err != nil {
				return nil, fmt.Errorf("sweep %s/%s: %w", names[d], family, err)
			}
			for _, b := range serveBudgets {
				key, err := catalog.NewKey(names[d], family, "SSE", b, 0)
				if err != nil {
					return nil, err
				}
				syn, err := fr.Synopsis(b)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", key, err)
				}
				n, err := catalog.WriteFile(filepath.Join(dir, key.Filename()), syn)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", key, err)
				}
				fx.keys = append(fx.keys, key)
				fx.refs[key] = syn
				fx.bytes += int64(n)
			}
		}
	}
	if pack {
		cat := catalog.New()
		if _, err := cat.LoadDir(dir); err != nil {
			return nil, err
		}
		if _, err := catalog.Pack(catalog.FlatPath(dir), cat.List()); err != nil {
			return nil, err
		}
		st, err := os.Stat(catalog.FlatPath(dir))
		if err != nil {
			return nil, err
		}
		fx.bytes += st.Size()
	}
	return fx, nil
}

func (fx *readFixture) Costs() []goldenEntry {
	out := make([]goldenEntry, len(fx.keys))
	for i, k := range fx.keys {
		out[i] = goldenEntry{Name: k.String(), Cost: fx.refs[k].ErrorCost()}
	}
	return out
}

// booted is a server over a catalog directory, as psynd assembles one.
type booted struct {
	srv  *server.Server
	cat  *catalog.Catalog
	flat *catalog.Flat
}

// boot loads the catalog the way psynd -flat does (BootDir: flat file
// when present, codec files otherwise) and starts a server on it. With
// keepFlat the server maintains catalog.flat across mutations.
func boot(dataDir, catDir string, keepFlat bool) (*booted, error) {
	cat := catalog.New()
	flat, _, _, err := catalog.BootDir(cat, catDir, nil)
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", catDir, err)
	}
	cfg := server.Config{
		DataDir:    dataDir,
		CatalogDir: catDir,
		Catalog:    cat,
		Pool:       engine.New(engine.Options{MaxBuilds: 2}),
		C:          serverC,
		Logf:       func(format string, args ...any) { fmt.Fprintf(os.Stderr, "bench: server: "+format+"\n", args...) },
	}
	if keepFlat {
		cfg.FlatPath = catalog.FlatPath(catDir)
	}
	srv, err := server.New(cfg)
	if err != nil {
		if flat != nil {
			flat.Close()
		}
		return nil, err
	}
	return &booted{srv: srv, cat: cat, flat: flat}, nil
}

func (b *booted) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if b.flat != nil {
		if cerr := b.flat.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// recorder is a reusable in-process http.ResponseWriter, so a point
// request's measured cost is the handler's and not the harness's.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(c int)   { r.code = c }
func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.body.Reset()
}

// pointReq is one single-key GET with the answer the offline synopsis
// gives and, once set-up has verified it, the exact body to expect.
type pointReq struct {
	req  *http.Request
	want float64
	body []byte
}

// genPointTrain draws one train: requests alternate family and op, and
// draw dataset, budget and items from rng.
func genPointTrain(rng *rand.Rand, fx *readFixture, names []string) ([]pointReq, error) {
	train := make([]pointReq, trainLen)
	for j := range train {
		family := catalog.FamilyHistogram
		if j%2 == 1 {
			family = catalog.FamilyWavelet
		}
		key, err := catalog.NewKey(names[rng.Intn(len(names))], family, "SSE", serveBudgets[rng.Intn(len(serveBudgets))], 0)
		if err != nil {
			return nil, err
		}
		ref := fx.refs[key]
		base := fmt.Sprintf("dataset=%s&family=%s&metric=SSE&budget=%d", key.Dataset, key.Family, key.Budget)
		var url string
		if (j/2)%2 == 0 {
			i := rng.Intn(serveN)
			url = fmt.Sprintf("/v1/estimate?%s&i=%d", base, i)
			train[j].want = ref.Estimate(i)
		} else {
			lo := rng.Intn(serveN)
			hi := lo + rng.Intn(serveN-lo)
			url = fmt.Sprintf("/v1/rangesum?%s&lo=%d&hi=%d", base, lo, hi)
			train[j].want = ref.RangeSum(lo, hi)
		}
		if train[j].req, err = http.NewRequest(http.MethodGet, url, nil); err != nil {
			return nil, err
		}
	}
	return train, nil
}

// servePoint sends trains of single GETs through the handler in-process.
// In-process because the same requests over a loopback socket spend >95%
// of their time in the kernel and net/http and do not repeat from run to
// run (README.md, "Why the point reads stay in-process").
type servePoint struct {
	fx     *readFixture
	b      *booted
	h      http.Handler
	trains [][]pointReq
	rec    recorder
}

func setupServePoint(seed int64, e env) (instance, error) {
	fx, err := buildReadFixture(seed, filepath.Join(e.dir, "cat"), false)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(e.dir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	b, err := boot(dataDir, fx.dir, false)
	if err != nil {
		return nil, err
	}
	s := &servePoint{fx: fx, b: b, h: b.srv.Handler(), rec: recorder{hdr: http.Header{}}}
	names, _ := serveSources(seed)
	rng := rngFor(seed, "serve-point/trains")
	for t := 0; t < distinctLoads; t++ {
		train, err := genPointTrain(rng, fx, names)
		if err != nil {
			b.close()
			return nil, err
		}
		s.trains = append(s.trains, train)
	}
	if e.check {
		if err := s.verifyAll(); err != nil {
			b.close()
			return nil, err
		}
	}
	return s, warm(s)
}

// verifyAll serves every distinct request once and holds the decoded
// answer to the offline synopsis bit for bit; the verified body becomes
// what the timed ops compare against.
func (s *servePoint) verifyAll() error {
	for t := range s.trains {
		for j := range s.trains[t] {
			pr := &s.trains[t][j]
			s.rec.reset()
			s.h.ServeHTTP(&s.rec, pr.req)
			if s.rec.code != http.StatusOK {
				return fmt.Errorf("%s: status %d: %s", pr.req.URL, s.rec.code, s.rec.body.Bytes())
			}
			var got struct {
				Estimate *float64 `json:"estimate"`
				Sum      *float64 `json:"sum"`
			}
			if err := json.Unmarshal(s.rec.body.Bytes(), &got); err != nil {
				return fmt.Errorf("%s: %w", pr.req.URL, err)
			}
			v := got.Estimate
			if v == nil {
				v = got.Sum
			}
			if v == nil || math.Float64bits(*v) != math.Float64bits(pr.want) {
				return fmt.Errorf("%s: served %s, offline synopsis answers %v", pr.req.URL, s.rec.body.Bytes(), pr.want)
			}
			pr.body = bytes.Clone(s.rec.body.Bytes())
		}
	}
	return nil
}

func (s *servePoint) Op(i int, tr *tracer) error {
	var firstErr error
	for j := range s.trains[i%len(s.trains)] {
		pr := &s.trains[i%len(s.trains)][j]
		s.rec.reset()
		tr.begin("server.handler_point")
		s.h.ServeHTTP(&s.rec, pr.req)
		tr.end()
		if firstErr == nil && (s.rec.code != http.StatusOK || (pr.body != nil && !bytes.Equal(s.rec.body.Bytes(), pr.body))) {
			firstErr = fmt.Errorf("%s: status %d body %q, want %q", pr.req.URL, s.rec.code, s.rec.body.Bytes(), pr.body)
		}
	}
	return firstErr
}

func (s *servePoint) ArtifactBytes() int64 { return s.fx.bytes }
func (s *servePoint) Costs() []goldenEntry { return s.fx.Costs() }
func (s *servePoint) Close() error         { return s.b.close() }

// genBatchBody draws one 1024-op batch over the fixture's keys and the
// offline answers to it.
func genBatchBody(rng *rand.Rand, fx *readFixture) ([]byte, []float64, error) {
	req := query.BatchRequest{Ops: make([]query.Op, trainLen)}
	want := make([]float64, trainLen)
	for j := range req.Ops {
		key := fx.keys[rng.Intn(len(fx.keys))]
		ref := fx.refs[key]
		op := query.Op{BatchKey: query.BatchKey{Dataset: key.Dataset, Family: key.Family, Metric: key.Metric, Budget: key.Budget}}
		if j%2 == 0 {
			op.Op, op.I = query.OpEstimate, rng.Intn(serveN)
			want[j] = ref.Estimate(op.I)
		} else {
			op.Op, op.Lo = query.OpRangeSum, rng.Intn(serveN)
			op.Hi = op.Lo + rng.Intn(serveN-op.Lo)
			want[j] = ref.RangeSum(op.Lo, op.Hi)
		}
		req.Ops[j] = op
	}
	body, err := json.Marshal(&req)
	return body, want, err
}

// serveBatch posts 1024-op batches over a real loopback socket with one
// keep-alive client: the one workload that crosses the kernel, because
// at a thousand ops a request the envelope is amortised and the depth
// repeats.
type serveBatch struct {
	fx     *readFixture
	b      *booted
	http   *http.Server
	client *http.Client
	url    string
	bodies [][]byte
	want   [][]byte // verified response bodies
	tr     atomic.Pointer[tracer]
}

func setupServeBatch(seed int64, e env) (instance, error) {
	fx, err := buildReadFixture(seed, filepath.Join(e.dir, "cat"), true)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(e.dir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	b, err := boot(dataDir, fx.dir, false)
	if err != nil {
		return nil, err
	}
	if b.flat == nil {
		b.close()
		return nil, fmt.Errorf("catalog.flat was packed but the boot fell back to codec files")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	s := &serveBatch{fx: fx, b: b, url: "http://" + ln.Addr().String() + "/v1/query"}
	h := b.srv.Handler()
	s.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		tr.begin("server.handler_batch")
		h.ServeHTTP(w, r)
		tr.end()
	})}
	go func() { _ = s.http.Serve(ln) }() // returns when Close shuts the server down
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	rng := rngFor(seed, "serve-batch/bodies")
	for k := 0; k < distinctLoads; k++ {
		body, want, err := genBatchBody(rng, fx)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.bodies = append(s.bodies, body)
		s.want = append(s.want, nil)
		if !e.check {
			continue
		}
		got, err := s.post(k)
		if err == nil {
			err = checkBatch(got, want)
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("batch %d: %w", k, err)
		}
		s.want[k] = got
	}
	if err := warm(s); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// checkBatch holds every result of a served batch to the offline answer,
// bit for bit.
func checkBatch(body []byte, want []float64) error {
	var resp query.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Results) != len(want) {
		return fmt.Errorf("%d results for %d ops", len(resp.Results), len(want))
	}
	for j, r := range resp.Results {
		if r.Err != nil {
			return fmt.Errorf("op %d: %s: %s", j, r.Err.Code, r.Err.Message)
		}
		if math.Float64bits(r.Value) != math.Float64bits(want[j]) {
			return fmt.Errorf("op %d: served %v, offline synopsis answers %v", j, r.Value, want[j])
		}
	}
	return nil
}

func (s *serveBatch) post(k int) ([]byte, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(s.bodies[k]))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

func (s *serveBatch) Op(i int, tr *tracer) error {
	k := i % len(s.bodies)
	s.tr.Store(tr)
	tr.begin("http.roundtrip")
	got, err := s.post(k)
	tr.end()
	if err != nil {
		return err
	}
	if s.want[k] != nil && !bytes.Equal(got, s.want[k]) {
		return fmt.Errorf("batch %d: %d-byte response differs from the verified one (%d bytes)", k, len(got), len(s.want[k]))
	}
	return nil
}

func (s *serveBatch) ArtifactBytes() int64 { return s.fx.bytes }
func (s *serveBatch) Costs() []goldenEntry { return s.fx.Costs() }

func (s *serveBatch) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	s.client.CloseIdleConnections()
	if cerr := s.b.close(); err == nil {
		err = cerr
	}
	return err
}

// mutateEntry is one live catalog entry of serve-mutate.
type mutateEntry struct {
	family string
	metric probsyn.Metric
	budget int
	quant  int
}

var mutateEntries = []mutateEntry{
	{catalog.FamilyHistogram, probsyn.SSE, 64, 0},
	{catalog.FamilyHistogram, probsyn.SAE, 32, 0},
	{catalog.FamilyWavelet, probsyn.SSE, 64, 0},
	{catalog.FamilyWavelet, probsyn.SAE, 32, 32},
}

const mutateDataset = "d"

func (m mutateEntry) key() (catalog.Key, error) {
	return catalog.NewKeyQ(mutateDataset, m.family, m.metric.String(), m.budget, serverC, m.quant)
}

// options are the build options the server derives from the entry's key.
func (m mutateEntry) options() []probsyn.BuildOption {
	opts := []probsyn.BuildOption{probsyn.WithParams(probsyn.Params{C: serverC})}
	if m.family == catalog.FamilyWavelet {
		opts = append(opts, probsyn.WithWavelet())
		if m.quant > 0 {
			opts = append(opts, probsyn.WithQuantize(m.quant))
		}
	}
	return opts
}

func (m mutateEntry) build(src probsyn.Source) (probsyn.Synopsis, error) {
	return probsyn.Build(src, m.metric, m.budget, m.options()...)
}

// mutation bodies of one epoch position.
type mutateRound struct {
	appendBody []byte
	updateBody []byte
}

// serveMutate drives the write path. Appends grow the dataset, so later
// rounds cost more; the instance is epochal: every mutateEpochOps rounds
// it restarts from the pristine dataset and replays the same seeded
// mutations, which makes every epoch the same work.
type serveMutate struct {
	root     string // holds pristine/ and the current epoch's directories
	pristine string
	rounds   []mutateRound // position 0 is the warm round that builds the live states
	costs    []goldenEntry
	artifact int64

	epoch int
	pos   int // rounds applied in the current epoch, warm round included
	live  string
	b     *booted
	h     http.Handler
}

func setupServeMutate(seed int64, e env) (instance, error) {
	s := &serveMutate{root: e.dir, pristine: filepath.Join(e.dir, "pristine")}
	data := sensor(seed, "serve-mutate/data", mutateN)
	if err := os.MkdirAll(filepath.Join(s.pristine, "cat"), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(s.pristine, "data"), 0o755); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := probsyn.WriteDataset(&buf, data); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(s.pristine, "data", mutateDataset+".pd"), buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	cat := catalog.New()
	for _, m := range mutateEntries {
		key, err := m.key()
		if err != nil {
			return nil, err
		}
		syn, err := m.build(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		n, err := catalog.WriteFile(filepath.Join(s.pristine, "cat", key.Filename()), syn)
		if err != nil {
			return nil, err
		}
		cat.PutEncoded(key, syn, make([]byte, n))
		s.costs = append(s.costs, goldenEntry{Name: key.String(), Cost: syn.ErrorCost(), Approx: m.quant > 0})
		s.artifact += int64(n)
	}
	packed, err := catalog.PackBytes(cat.List())
	if err != nil {
		return nil, err
	}
	s.artifact += int64(len(packed))

	// One warm round plus an epoch of timed rounds, replayed every epoch.
	pdfs := sensor(seed, "serve-mutate/pdfs", (mutateEpochOps+1)*(mutateAppend+1)).Items
	rng := rngFor(seed, "serve-mutate/updates")
	for r := 0; r <= mutateEpochOps; r++ {
		take := pdfs[r*(mutateAppend+1) : (r+1)*(mutateAppend+1)]
		app := server.MutateRequest{Dataset: mutateDataset, Wait: true}
		for _, it := range take[:mutateAppend] {
			app.Items = append(app.Items, wirePDF(it))
		}
		item := wirePDF(take[mutateAppend])
		upd := server.MutateRequest{Dataset: mutateDataset, Wait: true, Item: &item,
			I: mutateN/2 - mutateSpread + rng.Intn(2*mutateSpread+1)}
		var round mutateRound
		if round.appendBody, err = json.Marshal(&app); err != nil {
			return nil, err
		}
		if round.updateBody, err = json.Marshal(&upd); err != nil {
			return nil, err
		}
		s.rounds = append(s.rounds, round)
	}
	if err := s.Reset(); err != nil {
		return nil, err
	}
	if err := warm(s); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func wirePDF(it pdata.ItemPDF) server.ItemPDFWire {
	w := server.ItemPDFWire{Entries: make([]server.FreqProbWire, len(it.Entries))}
	for k, e := range it.Entries {
		w.Entries[k] = server.FreqProbWire{Freq: e.Freq, Prob: e.Prob}
	}
	return w
}

func (s *serveMutate) EpochOps() int { return mutateEpochOps }

// Reset stops the current server, copies the pristine dataset and
// catalog into a fresh directory, boots on it with a flat keeper (what
// psynd -flat does) and applies the warm round, whose first mutation
// builds the live frontiers every later round maintains.
func (s *serveMutate) Reset() error {
	if err := s.stop(); err != nil {
		return err
	}
	s.epoch++
	s.live = filepath.Join(s.root, fmt.Sprintf("epoch%d", s.epoch))
	if err := os.CopyFS(s.live, os.DirFS(s.pristine)); err != nil {
		return err
	}
	b, err := boot(filepath.Join(s.live, "data"), filepath.Join(s.live, "cat"), true)
	if err != nil {
		return err
	}
	s.b, s.h, s.pos = b, b.srv.Handler(), 0
	return s.round(nil)
}

func (s *serveMutate) stop() error {
	if s.b == nil {
		return nil
	}
	err := s.b.close()
	s.b = nil
	if rerr := os.RemoveAll(s.live); err == nil {
		err = rerr
	}
	return err
}

// round applies the next round of the epoch: an append, then an update
// near the domain midpoint, each waited for and its response checked.
func (s *serveMutate) round(tr *tracer) error {
	if s.pos >= len(s.rounds) {
		return fmt.Errorf("round %d past the epoch's %d", s.pos, len(s.rounds))
	}
	r := s.rounds[s.pos]
	s.pos++
	domain := mutateN + s.pos*mutateAppend
	tr.begin("server.mutate_append")
	err := s.mutate("/v1/append", r.appendBody, domain)
	tr.end()
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}
	tr.begin("server.mutate_update")
	err = s.mutate("/v1/update", r.updateBody, domain)
	tr.end()
	if err != nil {
		return fmt.Errorf("update: %w", err)
	}
	return nil
}

func (s *serveMutate) mutate(path string, body []byte, domain int) error {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	rec := recorder{hdr: http.Header{}}
	s.h.ServeHTTP(&rec, req)
	if rec.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.code, rec.body.Bytes())
	}
	var resp server.MutateResponse
	if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
		return err
	}
	if resp.Status != "applied" || resp.Republished != len(mutateEntries) || resp.Domain != domain {
		return fmt.Errorf("response %s, want applied with %d republished over domain %d", rec.body.Bytes(), len(mutateEntries), domain)
	}
	return nil
}

func (s *serveMutate) Op(_ int, tr *tracer) error { return s.round(tr) }

// FinalCheck rebuilds every entry offline from the dataset file the
// server last wrote and holds each catalog file to it byte for byte.
func (s *serveMutate) FinalCheck() error {
	f, err := os.Open(filepath.Join(s.live, "data", mutateDataset+".pd"))
	if err != nil {
		return err
	}
	src, err := probsyn.ReadDataset(f)
	f.Close()
	if err != nil {
		return err
	}
	if want := mutateN + s.pos*mutateAppend; src.Domain() != want {
		return fmt.Errorf("dataset file has domain %d after %d rounds, want %d", src.Domain(), s.pos, want)
	}
	for _, m := range mutateEntries {
		key, err := m.key()
		if err != nil {
			return err
		}
		syn, err := m.build(src)
		if err != nil {
			return fmt.Errorf("%s: offline build: %w", key, err)
		}
		want, err := probsyn.MarshalSynopsis(syn)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(s.live, "cat", key.Filename()))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s: republished file differs from an offline build over the final dataset", key)
		}
	}
	return nil
}

func (s *serveMutate) ArtifactBytes() int64 { return s.artifact }
func (s *serveMutate) Costs() []goldenEntry { return s.costs }
func (s *serveMutate) Close() error         { return s.stop() }
