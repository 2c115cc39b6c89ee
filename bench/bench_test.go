package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"probsyn"
)

// TestMain runs the tests from the repository root, where the harness
// itself runs: its scratch directory and BENCHMARK.json are named from
// there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func metricValue(t *testing.T, ms []metric, name string) float64 {
	t.Helper()
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("no metric %s", name)
	return 0
}

func TestTailNeedsHundredSamples(t *testing.T) {
	ph := phase{secs: make([]float64, minTailSamples-1)}
	if _, err := endToEnd(ph, []float64{1}, 1, false); err == nil {
		t.Fatalf("p90 of %d samples was reported; ten samples must lie beyond it", len(ph.secs))
	}
	ph.secs = append(ph.secs, 1)
	if _, err := endToEnd(ph, []float64{1}, 1, false); err != nil {
		t.Fatalf("p90 of %d samples refused: %v", len(ph.secs), err)
	}
	// The smoke mode reports from two ops: it measures nothing.
	if _, err := endToEnd(phase{secs: []float64{0.01, 0.02}}, []float64{1}, 1, true); err != nil {
		t.Fatalf("smoke mode must report from two ops: %v", err)
	}
}

// TestTailSeesAClusteredSlowdown: the p90 is over the whole run, so slow
// ops that make up more than a tenth of it move the tail even when they
// miss a whole stretch of the run, and move the median not at all.
func TestTailSeesAClusteredSlowdown(t *testing.T) {
	secs := make([]float64, 100)
	for i := range secs {
		secs[i] = 0.010 + 0.00001*float64(i%20)
	}
	base, err := endToEnd(phase{secs: secs}, []float64{1}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range secs[:80] { // the last fifth of the run stays clean
		if i%20 < 3 {
			secs[i] *= 3 // 15% of the ops in four of five blocks
		}
	}
	slow, _ := endToEnd(phase{secs: secs}, []float64{1}, 1, false)
	if b, s := metricValue(t, base, "op_p90_ms"), metricValue(t, slow, "op_p90_ms"); s < 2.9*b {
		t.Errorf("12 slow ops in 100 moved op_p90_ms %v -> %v, want about tripled", b, s)
	}
	if b, s := metricValue(t, base, "op_p50_ms"), metricValue(t, slow, "op_p50_ms"); s > 1.01*b {
		t.Errorf("12 slow ops in 100 moved op_p50_ms %v -> %v", b, s)
	}
}

func TestBlockMedianRateIgnoresOneBurst(t *testing.T) {
	secs := make([]float64, 100)
	for i := range secs {
		secs[i] = 0.01 + 0.0001*float64(i%20) // every block holds the same 20 values
	}
	rate := blockMedianRate(secs, runBlocks)
	for i := 20; i < 40; i++ {
		secs[i] *= 10 // a neighbour's burst, all inside block 1
	}
	if got := blockMedianRate(secs, runBlocks); got != rate {
		t.Errorf("one slow block moved the median rate: %v -> %v", rate, got)
	}
	for i := range secs {
		secs[i] *= 2 // the program itself got slower: every block shows it
	}
	if got := blockMedianRate(secs, runBlocks); math.Abs(got-rate/2) > 1e-9*rate {
		t.Errorf("a slowdown of every op moved the rate %v -> %v, want halved", rate, got)
	}
	if got, want := blockMedianRate([]float64{0.5, 0.5}, runBlocks), 2.0; got != want {
		t.Errorf("fewer ops than blocks: rate %v, want %v", got, want)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3, spread := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 || spread != 1 {
		t.Errorf("quartiles of 1..10 = %v, %v (spread %v), want 2.75, 8.25 (spread 1)", q1, q3, spread)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 0},
		{Name: "a", Start: 10, End: 40, Parent: 0, Op: 0},
		{Name: "b", Start: 50, End: 70, Parent: 0, Op: 0},
		{Name: "a", Start: 55, End: 60, Parent: 2, Op: 0},
		{Name: "probe", Start: 200, End: 300, Parent: -1, Op: -1},
	}
	if got, want := selfTimes(spans), []int64{50, 30, 15, 5, 100}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	rows := selfByName(spans)
	want := []layerShare{{"op", 1, 50}, {"a", 2, 35}, {"b", 1, 15}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("self by name %v, want %v (probe spans, op -1, excluded)", rows, want)
	}
}

func TestTracerNestsAndNilIsNoop(t *testing.T) {
	var off *tracer
	off.setOp(1)
	off.begin("x")
	off.end()
	if off.len() != 0 {
		t.Fatal("nil tracer recorded spans")
	}
	tr := newTracer()
	tr.setOp(7)
	tr.begin("outer")
	tr.begin("inner")
	tr.end()
	tr.end()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].Op != 7 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Fatalf("inner span not inside outer: %+v", tr.spans)
	}
}

func steadyHost() float64 { return 1 }

// failing is an instance whose odd ops fail.
type failing struct{ resets int }

func (f *failing) Op(i int, _ *tracer) error {
	if i%2 == 1 {
		return errors.New("wrong answer")
	}
	return nil
}
func (f *failing) ArtifactBytes() int64 { return 1 }
func (f *failing) Close() error         { return nil }
func (f *failing) EpochOps() int        { return 4 }
func (f *failing) Reset() error         { f.resets++; return nil }

func TestRunOpsCountsFailuresAndStopsOnEpochBoundary(t *testing.T) {
	f := &failing{}
	ph, err := runOps(f, nil, steadyHost, stopRule{seconds: 0, minOps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.secs) != 8 || ph.failed != 4 || f.resets != 2 {
		t.Errorf("ran %d ops, %d failed, %d resets; want 8 (first epoch boundary past 5), 4, 2", len(ph.secs), ph.failed, f.resets)
	}
	ph, _ = runOps(f, nil, steadyHost, stopRule{maxOps: 2})
	if len(ph.secs) != 2 {
		t.Errorf("maxOps 2 ran %d ops", len(ph.secs))
	}
}

// sleeper is an instance whose ops take about a millisecond.
type sleeper struct{}

func (sleeper) Op(int, *tracer) error { time.Sleep(time.Millisecond); return nil }
func (sleeper) ArtifactBytes() int64  { return 1 }
func (sleeper) Close() error          { return nil }

// TestRunOpsDividesByTheHostSlowdown: every stretch of ops is divided by
// the mean of the readings taken before and after it, a closing reading is
// the next stretch's opening one, and a steady host changes nothing.
func TestRunOpsDividesByTheHostSlowdown(t *testing.T) {
	reads := 0
	host := func() float64 { reads++; return float64(1 + 2*(reads%2)) } // 3, 1, 3, 1, ...
	ph, err := runOps(sleeper{}, nil, host, stopRule{seconds: 4 * stretchSeconds})
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.slow) < 4 || reads != len(ph.slow)+1 {
		t.Fatalf("%d stretches from %d readings, want at least 4 and one reading more than stretches", len(ph.slow), reads)
	}
	if len(ph.secs) != len(ph.raw) {
		t.Fatalf("%d normalised times for %d ops", len(ph.secs), len(ph.raw))
	}
	for i, d := range ph.raw {
		if got, want := ph.secs[i], d/2; math.Abs(got-want) > 1e-12 {
			t.Fatalf("op %d: %v s measured between readings 3 and 1 reported as %v, want %v", i, d, got, want)
		}
	}
	ph, _ = runOps(sleeper{}, nil, steadyHost, stopRule{maxOps: 3})
	if !reflect.DeepEqual(ph.secs, ph.raw) {
		t.Errorf("a host at its reference speed changed the times: %v -> %v", ph.raw, ph.secs)
	}
}

// TestReferenceKernelIsFixedWork: the kernel the host's speed is read with
// does the same work every pass and allocates nothing, so it starts no
// garbage collection and its time says how fast the host runs, not what
// the heap looks like.
func TestReferenceKernelIsFixedWork(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	a.pass()
	b.pass()
	first := a.sink
	if first != b.sink {
		t.Fatalf("two kernels computed %v and %v", first, b.sink)
	}
	if allocs := testing.AllocsPerRun(3, func() { a.pass() }); allocs != 0 {
		t.Errorf("a pass allocates %v times", allocs)
	}
	if got := a.sink; math.Abs(got-5*first) > 1e-9*first {
		t.Errorf("five passes summed to %v, want five times %v", got, first)
	}
	// The race detector slows the kernel twentyfold; it is not a host state.
	if whole, scan := newHostSpeed().slowdown(3); !raceEnabled && !(whole > 0.2 && whole < 20 && scan > 0.2 && scan < 20) {
		t.Errorf("slowdown %v (scan half %v): the reference times are off by more than any host state explains", whole, scan)
	}
}

// inputs renders everything a workload generates from the seed.
func inputs(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for w, cfgs := range map[string][]buildCfg{
		"hist-scan": histScanCfgs(seed), "hist-oracle": histOracleCfgs(seed), "wavelet-dp": waveletDPCfgs(seed),
	} {
		var buf bytes.Buffer
		for _, c := range cfgs {
			buf.WriteString(c.name + "\n")
			if err := probsyn.WriteDataset(&buf, c.src); err != nil {
				t.Fatal(err)
			}
		}
		out[w] = buf.Bytes()
	}
	names, srcs := serveSources(seed)
	var buf bytes.Buffer
	for i, src := range srcs {
		buf.WriteString(names[i] + "\n")
		if err := probsyn.WriteDataset(&buf, src); err != nil {
			t.Fatal(err)
		}
	}
	out["serve-catalog"] = buf.Bytes()
	return out
}

func TestInputsFollowTheSeed(t *testing.T) {
	a, again, b := inputs(t, 5), inputs(t, 5), inputs(t, 6)
	for name := range a {
		if !bytes.Equal(a[name], again[name]) {
			t.Errorf("%s: equal seeds generated different inputs", name)
		}
		if bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: different seeds generated the same inputs", name)
		}
	}
	var order []string
	for _, c := range histOracleCfgs(5) {
		order = append(order, c.name)
	}
	if want := []string{"SAE", "SARE", "MAE"}; !reflect.DeepEqual(order, want) {
		t.Errorf("hist-oracle round order %v, want %v", order, want)
	}
}

func TestRequestStreamsFollowTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up the serving workloads")
	}
	type streams struct {
		urls   []string
		bodies [][]byte
		rounds []mutateRound
	}
	gen := func(seed int64) streams {
		var s streams
		dir, err := scratchRoot() // inside bench/out, like every run
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		sp, err := setupServePoint(seed, env{dir: dir + "/p"})
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		for _, pr := range sp.(*servePoint).trains[0] {
			s.urls = append(s.urls, pr.req.URL.String())
		}
		sb, err := setupServeBatch(seed, env{dir: dir + "/b"})
		if err != nil {
			t.Fatal(err)
		}
		defer sb.Close()
		s.bodies = sb.(*serveBatch).bodies
		sm, err := setupServeMutate(seed, env{dir: dir + "/m"})
		if err != nil {
			t.Fatal(err)
		}
		defer sm.Close()
		s.rounds = sm.(*serveMutate).rounds
		return s
	}
	a, again, b := gen(5), gen(5), gen(6)
	if !reflect.DeepEqual(a, again) {
		t.Error("equal seeds generated different request streams")
	}
	if reflect.DeepEqual(a.urls, b.urls) || reflect.DeepEqual(a.bodies, b.bodies) || reflect.DeepEqual(a.rounds, b.rounds) {
		t.Error("different seeds generated the same request stream")
	}
}

// TestSmoke runs every workload for two ops with every check on: the
// golden costs on seed 1, the recomputation on another.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t0 := time.Now()
	for i, wl := range workloads {
		seed := int64(goldenSeed + i%2)
		res, err := execute(options{workload: wl.Name, seed: seed, smoke: true})
		if err != nil {
			t.Fatalf("%s seed %d: %v", wl.Name, seed, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", wl.Name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(endToEndSpec) {
			t.Fatalf("%s: %d metrics, want %d", wl.Name, len(res.Metrics), len(endToEndSpec))
		}
		for k, m := range res.Metrics {
			if m.Name != endToEndSpec[k].Name || m.Unit != endToEndSpec[k].Unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %d is %+v, want a positive %s in %s", wl.Name, k, m, endToEndSpec[k].Name, endToEndSpec[k].Unit)
			}
		}
	}
	if d := time.Since(t0); d > 20*time.Second && !raceEnabled {
		t.Errorf("smoke of all workloads took %v, want < 20s", d)
	}
}

// TestTracedSmoke checks a traced run emits every per-layer metric, that
// the counts repeat exactly, and that it leaves the span file.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every layer probe twice")
	}
	counts := func() map[string]float64 {
		res, err := execute(options{workload: "serve-batch", seed: 3, smoke: true, trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || len(res.Metrics) != len(perLayerSpec) {
			t.Fatalf("correct=%v, %d metrics, want %d", res.Correct, len(res.Metrics), len(perLayerSpec))
		}
		out := map[string]float64{}
		for k, m := range res.Metrics {
			if m.Name != perLayerSpec[k].Name || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("metric %d is %+v, want a finite %s", k, m, perLayerSpec[k].Name)
			}
			if m.Unit == "count" {
				out[m.Name] = m.Value
			}
		}
		if len(res.Layers) == 0 || res.Layers[0].Name != "server.handler_batch" {
			t.Errorf("self-time table %+v, want server.handler_batch on top", res.Layers)
		}
		return out
	}
	a, b := counts(), counts()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("counts differ between two traced runs of one seed:\n%v\n%v", a, b)
	}
	raw, err := os.ReadFile(outDir + "/trace-serve-batch.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("span file: %v, %d spans", err, len(doc.Spans))
	}
}

func TestGoldenCatchesAMovedCost(t *testing.T) {
	inst, err := setupWaveletDP(goldenSeed, env{workers: 1, check: true})
	if err != nil {
		t.Fatal(err)
	}
	costs := inst.(costed).Costs()
	if err := checkGolden("wavelet-dp", costs); err != nil {
		t.Fatalf("golden costs at the golden seed: %v", err)
	}
	for k, e := range costs {
		moved := append([]goldenEntry(nil), costs...)
		moved[k].Cost *= 1 + 1e-6
		if err := checkGolden("wavelet-dp", moved); err == nil {
			t.Errorf("%s: a cost 1e-6 above golden passed", e.Name)
		}
		moved[k].Cost = e.Cost * (1 - 1e-6)
		if err := checkGolden("wavelet-dp", moved); (err == nil) != e.Approx {
			t.Errorf("%s (approximate=%v): a cost below golden: %v", e.Name, e.Approx, err)
		}
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json and the tables
// the harness reports by from drifting.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds || len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEndSpec) || len(doc.PerLayer) != len(perLayerSpec) {
		t.Fatalf("BENCHMARK.json and the harness disagree on sizes; regenerate with `bench manifest`")
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %s", i, doc.Workloads[i], w.Name)
		}
	}
	for i, m := range endToEndSpec {
		if d := doc.EndToEnd[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, d, m)
		}
	}
	for i, m := range perLayerSpec {
		if d := doc.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, d, m)
		}
	}
}
