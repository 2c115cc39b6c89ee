// Command bench is the repository's benchmark: six workloads, each run
// end to end from a seed, every output checked, the gated metrics
// measured with tracing off and the per-layer ones in a separate traced
// run. README.md documents every metric and workload; BENCHMARK.json at
// the repository root is the contract a driver runs it by.
//
//	go run ./bench --workload hist-scan --seed 1 --seconds 10 --trace 0
//	go run ./bench --workload serve-batch --seed 1 --seconds 10 --trace 1
//	go run ./bench noise            # A/B/A/B repeatability check
//	go run ./bench noise -runs 10   # quartile spread over ten seeds
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// An untraced run sets the workload up at least setupRepeats times, then
// on until setupSeconds have gone into set-ups or setupMaxRepeats are
// done, so that a quarter-second set-up is timed as often as a run can
// afford; setup_s is the median, and the last set-up is the one measured
// on.
const (
	setupRepeats    = 3
	setupMaxRepeats = 7
	setupSeconds    = 2.0
)

// setupHostPasses is how many passes of the reference kernel make one
// reading of the host's speed around a set-up: a set-up is one timing of
// a second or so, so its two readings are taken with more care than the
// hundreds around the stretches of ops.
const setupHostPasses = 5

// tracedSpanCap bounds the spans a traced run keeps (and writes).
const tracedSpanCap = 100000

// outDir is where scratch directories and span files go: inside the
// benchmark's own directory. The path is relative to the repository
// root, which is where `go run ./bench` is run from (the tests change to
// it).
const outDir = "bench/out"

func main() {
	// Flags alone are a run, which is how a driver calls it; the
	// maintenance commands are named.
	args := os.Args[1:]
	var err error
	switch {
	case len(args) == 0 || strings.HasPrefix(args[0], "-"):
		err = runCmd(args)
	case args[0] == "noise":
		err = noiseCmd(args[1:])
	case args[0] == "manifest":
		err = manifestCmd()
	case args[0] == "golden":
		err = goldenCmd()
	default:
		err = fmt.Errorf("unknown command %q (want flags for a run, or noise, manifest or golden)", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options are the flags of a run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name (see README.md)")
	fs.Int64Var(&o.seed, "seed", goldenSeed, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "1: the traced per-layer run; 0: the end-to-end run, tracing off")
	fs.BoolVar(&o.smoke, "smoke", false, "two ops and one set-up: exercises every check, measures nothing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = *trace != 0
	res, err := execute(o)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", o.workload, res.Failed, res.Attempted)
	}
	return nil
}

// result is one run's outcome; print writes the table and the JSON line.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Samples   int
	Metrics   []metric
	// Untraced run: the median host slowdown the times were divided by, and
	// the median op time as the wall clock had it.
	Slowdown float64
	RawP50Ms float64
	Layers   []layerShare // traced run: self time by span name
}

func (r *result) print(w io.Writer) {
	for _, l := range r.Layers {
		fmt.Fprintf(w, "self  %-28s %8d calls %12.3f ms\n", l.Name, l.Calls, float64(l.SelfNs)/1e6)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-36s %16.6f %s\n", m.Name, m.Value, m.Unit)
	}
	if r.Slowdown > 0 {
		fmt.Fprintf(w, "times are at the host's reference speed: host slowdown %.3f, op_p50_ms as measured %.6f\n", r.Slowdown, r.RawP50Ms)
	}
	fmt.Fprintf(w, "timed ops %d, attempted %d, failed %d\n", r.Samples, r.Attempted, r.Failed)
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	out, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Fprintln(w, string(out))
}

// execute runs one workload once, end to end.
func execute(o options) (*result, error) {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	root, err := scratchRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	e := env{workers: runtime.NumCPU(), check: true}
	hs := newHostSpeed()

	var inst instance
	var setupSecs []float64
	spent := 0.0
	for r := 0; r == 0 || (!o.trace && !o.smoke && (r < setupRepeats || (spent < setupSeconds && r < setupMaxRepeats))); r++ {
		if inst != nil {
			if err := inst.Close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", wl.Name, err)
			}
			if err := os.RemoveAll(e.dir); err != nil {
				return nil, err
			}
		}
		e.dir = filepath.Join(root, fmt.Sprintf("setup%d", r))
		before, _ := hs.slowdown(setupHostPasses)
		secs, err := timed(func() (err error) { inst, err = wl.setup(o.seed, e); return })
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.Name, err)
		}
		after, _ := hs.slowdown(setupHostPasses)
		setupSecs = append(setupSecs, secs/((before+after)/2))
		spent += secs
	}
	defer inst.Close()
	if c, ok := inst.(costed); ok && o.seed == goldenSeed {
		if err := checkGolden(wl.Name, c.Costs()); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
	}

	res := &result{}
	host := func() float64 {
		whole, scan := hs.slowdown(1)
		if wl.scanBound {
			return scan
		}
		return whole
	}
	if o.trace {
		if err := tracedRun(o, wl, inst, host, root, res); err != nil {
			return nil, err
		}
	} else {
		rule := stopRule{seconds: o.seconds, minOps: minTailSamples}
		if o.smoke {
			rule = stopRule{minOps: 2, maxOps: 2}
		}
		ph, err := runOps(inst, nil, host, rule)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
		res.count(ph)
		res.Slowdown, res.RawP50Ms = median(ph.slow), median(ph.raw)*1e3
		if res.Metrics, err = endToEnd(ph, setupSecs, inst.ArtifactBytes(), o.smoke); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
	}
	if fc, ok := inst.(interface{ FinalCheck() error }); ok {
		res.Attempted++
		if err := fc.FinalCheck(); err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "bench: failed final check: %v\n", err)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func (r *result) count(ph phase) {
	r.Samples += len(ph.secs)
	r.Attempted += len(ph.secs)
	r.Failed += ph.failed
}

// tracedRun measures the workload untraced, then traced — the difference
// is the tracing overhead — then runs the layer probes, and writes the
// traced ops' spans to out/trace-<workload>.json.
func tracedRun(o options, wl workload, inst instance, host func() float64, root string, res *result) error {
	quarter := stopRule{seconds: o.seconds / 4}
	if o.smoke {
		quarter = stopRule{minOps: 2, maxOps: 2}
	}
	plain, err := runOps(inst, nil, host, quarter)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.Name, err)
	}
	tr := newTracer()
	quarter.maxSpans = tracedSpanCap
	traced, err := runOps(inst, tr, host, quarter)
	if err != nil {
		return fmt.Errorf("%s: traced: %w", wl.Name, err)
	}
	res.count(plain)
	res.count(traced)
	rss := peakRSSMB() // before the probes allocate for every other layer
	layers, err := layerMetrics(o.seed, root, runtime.NumCPU())
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	layers["proc.peak_rss_mb"] = rss
	layers["host.slowdown"] = median(append(plain.slow, traced.slow...))
	layers["trace.overhead_pct"] = (median(traced.secs)/median(plain.secs) - 1) * 100
	for _, spec := range perLayerSpec {
		v, ok := layers[spec.Name]
		if !ok {
			return fmt.Errorf("layer probes did not measure %s", spec.Name)
		}
		res.Metrics = append(res.Metrics, metric{spec.Name, v, spec.Unit})
	}
	res.Layers = selfByName(tr.spans)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(outDir, "trace-"+wl.Name+".json"), wl.Name, o.seed, tr.spans)
}

func timed(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// scratchRoot makes this process's scratch directory under out/.
func scratchRoot() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "run-")
}

// manifestCmd prints BENCHMARK.json from the tables the harness itself
// reports by, so the two cannot drift.
func manifestCmd() error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEndSpec {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerSpec {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}
