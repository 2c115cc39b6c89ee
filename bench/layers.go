package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/gen"
	"probsyn/internal/hist"
	"probsyn/internal/minimax"
	"probsyn/internal/query"
	"probsyn/internal/synopsis"
	"probsyn/internal/textio"
	"probsyn/internal/wavelet"
)

// The layer probes: every traced run measures every layer of the repo
// the same way, whatever workload it traces, by timing calls into the
// layers' public functions from here. Sizes are the workloads' own, so a
// layer metric and the end-to-end metric it should move (README.md has
// the table) are measured on the same inputs. Timings are medians of
// repeated calls; counts are taken on a serial engine, where they repeat
// exactly.

const (
	probeRounds   = 5      // traced build rounds per engine mode
	probeCalls    = 200000 // seeded calls behind each *_ns metric
	probeMaxCalls = 20000  // MaxAbs.Cost is ~100x dearer than the rest
	probeReps     = 20     // repetitions behind each *_us / *_ms median
	probeBoots    = 50     // BootDir calls behind each boot median
	probeHTTPReqs = 1000   // loopback requests behind the socket depths
	oracleBigN    = 4096   // exposes the value-major stride without a 15 s build
)

var histMetrics = []string{"SSE", "SSRE", "SSE-tuple", "SAE", "SARE", "MAE"}

// familyShort is how metric names abbreviate the catalog families.
var familyShort = map[string]string{catalog.FamilyHistogram: "hist", catalog.FamilyWavelet: "wavelet"}

// perLayerSpec lists every traced metric, in report order.
var perLayerSpec = func() []metricSpec {
	var out []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	for _, m := range histMetrics {
		add("ms", "lower", "hist.oracle_build_ms."+m)
	}
	for _, m := range histMetrics {
		add("ms", "lower", "hist.dp_ms."+m)
	}
	add("us", "lower", "hist.extract_us")
	for _, m := range histMetrics {
		add("ns", "lower", "hist.oracle_eval_ns."+m)
	}
	add("ns", "lower", "hist.oracle_eval_ns.SSE.n4096", "hist.oracle_eval_ns.SARE.n4096", "minimax.minimize_ns")
	for _, w := range []string{"scan", "oracle"} {
		add("count", "lower", "hist.cost_evals."+w, "hist.cands_scanned."+w)
		add("count", "higher", "hist.cands_pruned."+w)
		add("ratio", "higher", "hist.prune_ratio."+w)
	}
	add("ratio", "higher", "engine.par_speedup.hist-scan", "engine.par_speedup.hist-oracle", "engine.par_speedup.wavelet-dp")
	add("us", "lower", "engine.dispatch_us")
	add("ms", "lower", "wavelet.restricted_ms", "wavelet.restricted_max_ms", "wavelet.quantized_ms", "wavelet.sse_ms", "wavelet.point_errors_ms")
	add("us", "lower", "synopsis.marshal_us", "synopsis.unmarshal_us", "query.compile_us.hist", "query.compile_us.wavelet", "catalog.put_us", "catalog.save_us")
	add("ms", "lower", "catalog.pack_ms", "textio.write_ms", "textio.read_ms")
	add("ns", "lower", "query.estimate_ns.hist", "query.estimate_ns.wavelet", "query.rangesum_ns.hist", "query.rangesum_ns.wavelet", "catalog.get_ns")
	add("us", "lower", "query.decode_us", "query.eval_us", "query.encode_us", "server.handler_batch_us", "server.handler_point_us", "server.http_point_us", "server.http_batch_us")
	add("ratio", "lower", "server.envelope_share.point", "server.envelope_share.batch")
	add("ms", "lower", "live.build_ms", "live.append_ms.hist", "live.append_ms.wavelet", "live.update_ms.hist", "live.update_ms.wavelet", "server.mutate_append_ms", "server.mutate_update_ms", "live.republish_overhead_ms")
	add("ms", "lower", "catalog.boot_flat_ms", "catalog.boot_codec_ms")
	add("MB", "lower", "proc.peak_rss_mb")
	add("ratio", "lower", "host.slowdown")
	add("%", "lower", "trace.overhead_pct")
	return out
}()

// perCallNs times n calls of f as one stretch and returns nanoseconds
// per call.
func perCallNs(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// medianNs runs f reps times and returns the median duration.
func medianNs(reps int, f func()) float64 {
	ds := make([]float64, reps)
	for r := range ds {
		t0 := time.Now()
		f()
		ds[r] = float64(time.Since(t0))
	}
	return median(ds)
}

// layerMetrics runs every probe. dir is scratch space inside bench/out.
func layerMetrics(seed int64, dir string, workers int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, probe := range []func(int64, string, int, map[string]float64) error{
		probeBuilds, probeOracles, probeRead, probeLive,
	} {
		if err := probe(seed, dir, workers, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeBuilds runs traced rounds of the three build workloads, at nproc
// workers for the times an op pays and on a serial engine for the counts
// and for the serial side of par_speedup.
func probeBuilds(seed int64, _ string, workers int, out map[string]float64) error {
	for _, w := range []struct {
		name, counts string
		cfgs         []buildCfg
	}{
		{"hist-scan", "scan", histScanCfgs(seed)},
		{"hist-oracle", "oracle", histOracleCfgs(seed)},
		{"wavelet-dp", "", waveletDPCfgs(seed)},
	} {
		var roundNs [2]float64
		var serial *buildInstance
		for mode, nw := range []int{workers, 1} {
			inst, err := newBuildInstance(w.cfgs, env{workers: nw})
			if err != nil {
				return err
			}
			b := inst.(*buildInstance)
			tr := newTracer()
			if err := b.Op(0, tr); err != nil { // warm, and proves the round builds
				return fmt.Errorf("%s probe: %w", w.name, err)
			}
			tr = newTracer()
			for r := 0; r < probeRounds; r++ {
				tr.begin("round")
				err := b.Op(r, tr)
				tr.end()
				if err != nil {
					return fmt.Errorf("%s probe: %w", w.name, err)
				}
			}
			durs := durationsByName(tr.spans)
			roundNs[mode] = median(durs["round"])
			if mode == 1 {
				serial = b
				continue
			}
			for name, ds := range durs {
				if m, ok := strings.CutPrefix(name, "hist.oracle_build."); ok {
					out["hist.oracle_build_ms."+m] = median(ds) / 1e6
				} else if m, ok := strings.CutPrefix(name, "hist.dp."); ok {
					out["hist.dp_ms."+m] = median(ds) / 1e6
				} else if name == "hist.extract" {
					out["hist.extract_us"] = median(ds) / 1e3
				} else if strings.HasPrefix(name, "wavelet.") {
					out[name+"_ms"] = median(ds) / 1e6
				}
			}
		}
		out["engine.par_speedup."+w.name] = roundNs[1] / roundNs[0]
		if w.counts != "" {
			var st hist.DPStats
			for _, s := range serial.stats {
				st.Add(s)
			}
			out["hist.cost_evals."+w.counts] = float64(st.CostEvals)
			out["hist.cands_scanned."+w.counts] = float64(st.CandidatesScanned)
			out["hist.cands_pruned."+w.counts] = float64(st.CandidatesPruned)
			out["hist.prune_ratio."+w.counts] = float64(st.CandidatesPruned) / float64(st.CandidatesScanned+st.CandidatesPruned)
		}
	}
	vp := sensor(seed, "wavelet-dp/sae", wavRestrictedN)
	var perr error
	out["wavelet.point_errors_ms"] = medianNs(probeReps, func() {
		if _, err := wavelet.NewPointErrors(vp, probsyn.SAE, probsyn.DefaultParams()); err != nil {
			perr = err
		}
	}) / 1e6
	if perr != nil {
		return perr
	}
	// An empty dispatch big enough to fan out: what one MapChunks costs
	// before any work is done.
	pool := engine.New(engine.Options{Workers: workers})
	out["engine.dispatch_us"] = perCallNs(probeCalls/100, func(int) {
		pool.MapChunks(0, workers, engine.DefaultGrain*workers, func(_, _, _ int) {})
	}) / 1e3
	return nil
}

// probeOracles times seeded Cost(s, e) calls on each workload oracle,
// and on SSE and SARE at n=4096 where a value-major table's stride shows.
func probeOracles(seed int64, _ string, _ int, out map[string]float64) error {
	type probe struct {
		name   string
		src    probsyn.Source
		metric probsyn.Metric
	}
	var probes []probe
	for _, c := range append(histScanCfgs(seed), histOracleCfgs(seed)...) {
		probes = append(probes, probe{c.name, c.src, c.metric})
	}
	probes = append(probes,
		probe{"SSE.n4096", sensor(seed, "oracle/sse4096", oracleBigN), probsyn.SSE},
		probe{"SARE.n4096", gen.MystiQLinkage(rngFor(seed, "oracle/sare4096"), gen.DefaultMystiQ(oracleBigN)), probsyn.SARE})
	var sink float64
	for _, p := range probes {
		o, err := hist.NewOracle(p.src, p.metric, probsyn.DefaultParams())
		if err != nil {
			return fmt.Errorf("oracle %s: %w", p.name, err)
		}
		calls := probeCalls
		if p.metric == probsyn.MAE {
			calls = probeMaxCalls
		}
		n := o.N()
		rng := rngFor(seed, "oracle/pairs/"+p.name)
		if so, ok := o.(hist.SweepOracle); ok {
			// The DP prices a sweep oracle a whole column at a time and
			// never bucket by bucket (one tuple-pdf Cost call is O(tuples));
			// time it the way it is used, per cost filled.
			costs, reps := make([]float64, n), make([]float64, n)
			filled := 0
			t0 := time.Now()
			for filled < calls {
				e := rng.Intn(n)
				so.CostsForEnd(e, costs, reps)
				filled += e + 1
			}
			out["hist.oracle_eval_ns."+p.name] = float64(time.Since(t0)) / float64(filled)
			sink += costs[0]
			continue
		}
		pairs := make([][2]int32, calls)
		for i := range pairs {
			s, e := rng.Intn(n), rng.Intn(n)
			if s > e {
				s, e = e, s
			}
			pairs[i] = [2]int32{int32(s), int32(e)}
		}
		out["hist.oracle_eval_ns."+p.name] = perCallNs(calls, func(i int) {
			c, _ := o.Cost(int(pairs[i][0]), int(pairs[i][1]))
			sink += c
		})
	}
	rng := rngFor(seed, "minimax/lines")
	lines := make([]minimax.Line, 32)
	for i := range lines {
		lines[i] = minimax.Line{A: 2*rng.Float64() - 1, B: 10 * rng.Float64()}
	}
	out["minimax.minimize_ns"] = perCallNs(probeCalls, func(int) {
		_, y := minimax.MinimizeMax(lines, 0, 10)
		sink += y
	})
	if sink != sink { // keeps the calls live; never true for these inputs
		return fmt.Errorf("oracle probe produced NaN")
	}
	return nil
}

// probeRead measures the read side one depth at a time: codec, compile,
// catalog, bare querier, batch decode/eval/encode, handler, socket.
func probeRead(seed int64, dir string, _ int, out map[string]float64) error {
	inst, err := setupServePoint(seed, env{dir: filepath.Join(dir, "probe-read")})
	if err != nil {
		return err
	}
	sp := inst.(*servePoint)
	defer sp.Close()
	fx, cat := sp.fx, sp.b.cat
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	blobs := make([][]byte, len(fx.keys))
	out["synopsis.marshal_us"] = medianNs(probeReps, func() {
		for i, k := range fx.keys {
			b, err := synopsis.Marshal(fx.refs[k])
			fail(err)
			blobs[i] = b
		}
	}) / 1e3 / float64(len(fx.keys))
	out["synopsis.unmarshal_us"] = medianNs(probeReps, func() {
		for _, b := range blobs {
			_, err := synopsis.Unmarshal(b)
			fail(err)
		}
	}) / 1e3 / float64(len(fx.keys))
	for _, family := range []string{catalog.FamilyHistogram, catalog.FamilyWavelet} {
		var syns []probsyn.Synopsis
		for _, k := range fx.keys {
			if k.Family == family {
				syns = append(syns, fx.refs[k])
			}
		}
		short := familyShort[family]
		out["query.compile_us."+short] = medianNs(probeReps, func() {
			for _, s := range syns {
				query.Compile(s)
			}
		}) / 1e3 / float64(len(syns))
	}
	scratch := catalog.New()
	out["catalog.put_us"] = medianNs(probeReps, func() {
		for _, k := range fx.keys {
			_, _, err := scratch.Put(k, fx.refs[k])
			fail(err)
		}
	}) / 1e3 / float64(len(fx.keys))
	saveDir := filepath.Join(dir, "probe-save")
	if err := os.MkdirAll(saveDir, 0o755); err != nil {
		return err
	}
	entries := scratch.List()
	out["catalog.save_us"] = medianNs(probeReps, func() {
		for _, e := range entries {
			_, err := scratch.Save(saveDir, e)
			fail(err)
		}
	}) / 1e3 / float64(len(entries))
	out["catalog.pack_ms"] = medianNs(probeReps, func() {
		_, err := catalog.PackBytes(entries)
		fail(err)
	}) / 1e6
	data := sensor(seed, "serve-mutate/data", mutateN)
	var text bytes.Buffer
	out["textio.write_ms"] = medianNs(probeReps, func() {
		text.Reset()
		fail(textio.Write(&text, data))
	}) / 1e6
	out["textio.read_ms"] = medianNs(probeReps, func() {
		_, err := textio.Read(bytes.NewReader(text.Bytes()))
		fail(err)
	}) / 1e6

	// Bare compiled queriers of the largest budget on one dataset.
	rng := rngFor(seed, "probe/items")
	items := make([][2]int, probeCalls)
	for i := range items {
		lo := rng.Intn(serveN)
		items[i] = [2]int{lo, lo + rng.Intn(serveN-lo)}
	}
	var sink float64
	maxB := serveBudgets[len(serveBudgets)-1]
	for _, family := range []string{catalog.FamilyHistogram, catalog.FamilyWavelet} {
		key, err := catalog.NewKey("sensor-a", family, "SSE", maxB, 0)
		if err != nil {
			return err
		}
		e, ok := cat.Get(key)
		if !ok {
			return fmt.Errorf("probe: %s not cataloged", key)
		}
		short := familyShort[family]
		q := e.Querier
		out["query.estimate_ns."+short] = perCallNs(probeCalls, func(i int) { sink += q.Estimate(items[i][0]) })
		out["query.rangesum_ns."+short] = perCallNs(probeCalls, func(i int) { sink += q.RangeSum(items[i][0], items[i][1]) })
	}
	out["catalog.get_ns"] = perCallNs(probeCalls, func(i int) {
		if _, ok := cat.Get(fx.keys[i%len(fx.keys)]); !ok {
			fail(fmt.Errorf("probe: catalog lost %s", fx.keys[i%len(fx.keys)]))
		}
	})

	// The batch path, taken apart: what handleQuery does between reading
	// the body and writing the response.
	body, _, err := genBatchBody(rngFor(seed, "probe/batch"), fx)
	if err != nil {
		return err
	}
	resolve := func(bk query.BatchKey) (query.Querier, int, *query.OpError) {
		key, err := catalog.NewKeyQ(bk.Dataset, bk.Family, bk.Metric, bk.Budget, serverC, bk.Q)
		if err != nil {
			return nil, 0, &query.OpError{Code: "bad_request", Message: err.Error()}
		}
		e, ok := cat.Get(key)
		if !ok {
			return nil, 0, &query.OpError{Code: "not_found", Message: key.String()}
		}
		return e.Querier, e.Synopsis.Domain(), nil
	}
	var req query.BatchRequest
	var resp query.BatchResponse
	var enc bytes.Buffer
	reps := 10 * probeReps
	out["query.decode_us"] = medianNs(reps, func() { fail(query.DecodeBatch(body, &req)) }) / 1e3
	out["query.eval_us"] = medianNs(reps, func() {
		resp.Results = resp.Results[:0]
		query.EvalBatch(&req, resolve, &resp)
	}) / 1e3
	out["query.encode_us"] = medianNs(reps, func() {
		enc.Reset()
		fail(query.EncodeResponse(&enc, &resp))
	}) / 1e3

	// The same two requests at handler depth and at socket depth. The
	// socket numbers are informational: they do not repeat.
	rec := &sp.rec
	out["server.handler_batch_us"] = medianNs(reps, func() {
		r, err := http.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		fail(err)
		rec.reset()
		sp.h.ServeHTTP(rec, r)
		if rec.code != http.StatusOK {
			fail(fmt.Errorf("probe: batch status %d", rec.code))
		}
	}) / 1e3
	out["server.handler_point_us"] = medianNs(probeReps, func() { fail(sp.Op(0, nil)) }) / 1e3 / trainLen

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: sp.h}
	go func() { _ = hs.Serve(ln) }() // returns at hs.Close below
	defer hs.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	base := "http://" + ln.Addr().String()
	do := func(r *http.Response, err error) {
		if err != nil {
			fail(err)
			return
		}
		_, err = io.Copy(io.Discard, r.Body)
		fail(err)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			fail(fmt.Errorf("probe: socket status %d", r.StatusCode))
		}
	}
	train := sp.trains[0]
	k := 0
	out["server.http_point_us"] = medianNs(probeHTTPReqs, func() {
		do(client.Get(base + train[k%len(train)].req.URL.String()))
		k++
	}) / 1e3
	out["server.http_batch_us"] = medianNs(probeHTTPReqs/4, func() {
		do(client.Post(base+"/v1/query", "application/json", bytes.NewReader(body)))
	}) / 1e3
	out["server.envelope_share.point"] = 1 - out["server.handler_point_us"]/out["server.http_point_us"]
	out["server.envelope_share.batch"] = 1 - out["server.handler_batch_us"]/out["server.http_batch_us"]

	// Cold start lives here, as a median of many boots: one boot is
	// 0.2-8 ms, too short to gate as a single reading.
	bootMs := func() float64 {
		return medianNs(probeBoots, func() {
			flat, _, _, err := catalog.BootDir(catalog.New(), fx.dir, nil)
			fail(err)
			if flat != nil {
				fail(flat.Close())
			}
		}) / 1e6
	}
	out["catalog.boot_codec_ms"] = bootMs()
	if _, err := catalog.Pack(catalog.FlatPath(fx.dir), cat.List()); err != nil {
		return err
	}
	out["catalog.boot_flat_ms"] = bootMs()
	if sink != sink {
		return fmt.Errorf("read probe produced NaN")
	}
	return firstErr
}

// probeLive times the live maintainers in-process and the same
// mutations served, so their difference is what persist, republish and
// re-pack add.
func probeLive(seed int64, dir string, workers int, out map[string]float64) error {
	data := sensor(seed, "serve-mutate/data", mutateN)
	pdfs := sensor(seed, "probe/live-pdfs", probeRounds*(mutateAppend+1)).Items
	pool := engine.New(engine.Options{Workers: workers, MaxBuilds: 2})
	build := func() ([]probsyn.Maintainer, error) {
		ms := make([]probsyn.Maintainer, len(mutateEntries))
		for k, m := range mutateEntries {
			var err error
			if ms[k], err = probsyn.BuildLive(data, m.metric, m.budget, append(m.options(), probsyn.WithPool(pool))...); err != nil {
				return nil, err
			}
		}
		return ms, nil
	}
	var ms []probsyn.Maintainer
	var firstErr error
	out["live.build_ms"] = medianNs(3, func() {
		var err error
		if ms, err = build(); err != nil && firstErr == nil {
			firstErr = err
		}
	}) / 1e6
	if firstErr != nil {
		return firstErr
	}
	appendNs := map[string][]float64{}
	updateNs := map[string][]float64{}
	for r := 0; r < probeRounds; r++ {
		take := pdfs[r*(mutateAppend+1) : (r+1)*(mutateAppend+1)]
		perFamily := func(f func(m probsyn.Maintainer) error, into map[string][]float64) error {
			sum := map[string]float64{}
			for k, m := range ms {
				t0 := time.Now()
				if err := f(m); err != nil {
					return err
				}
				sum[familyShort[mutateEntries[k].family]] += float64(time.Since(t0))
			}
			for fam, ns := range sum {
				into[fam] = append(into[fam], ns)
			}
			return nil
		}
		if err := perFamily(func(m probsyn.Maintainer) error { return m.Append(take[:mutateAppend]) }, appendNs); err != nil {
			return err
		}
		if err := perFamily(func(m probsyn.Maintainer) error { return m.Update(mutateN/2, take[mutateAppend]) }, updateNs); err != nil {
			return err
		}
	}
	inProcess := 0.0
	for _, fam := range []string{"hist", "wavelet"} {
		out["live.append_ms."+fam] = median(appendNs[fam]) / 1e6
		out["live.update_ms."+fam] = median(updateNs[fam]) / 1e6
		inProcess += out["live.append_ms."+fam] + out["live.update_ms."+fam]
	}

	inst, err := setupServeMutate(seed, env{dir: filepath.Join(dir, "probe-live")})
	if err != nil {
		return err
	}
	sm := inst.(*serveMutate)
	defer sm.Close()
	if err := sm.Reset(); err != nil {
		return err
	}
	tr := newTracer()
	for r := 0; r < probeRounds; r++ {
		if err := sm.Op(r, tr); err != nil {
			return err
		}
	}
	durs := durationsByName(tr.spans)
	out["server.mutate_append_ms"] = median(durs["server.mutate_append"]) / 1e6
	out["server.mutate_update_ms"] = median(durs["server.mutate_update"]) / 1e6
	out["live.republish_overhead_ms"] = out["server.mutate_append_ms"] + out["server.mutate_update_ms"] - inProcess
	return nil
}
