// Command experiments regenerates every figure of the paper's evaluation
// (§5) as CSV on stdout, using the generated stand-ins for the MystiQ and
// MayBMS/TPC-H datasets (see DESIGN.md). Default sizes are scaled down so a
// full run finishes in minutes; pass -full for the paper's sizes.
//
// Usage:
//
//	experiments [flags] <mode>|all
//
// `experiments -h` lists the modes (the table in modes below is the one
// place they are named). The frontier mode prints Figure-2/4-style
// cost-vs-budget curves built the cheap way — one probsyn.BuildSweep per
// family serves every budget. What a served or live synopsis costs to
// build and maintain is measured by bench/ and the Go benchmarks, not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"probsyn"
	"probsyn/internal/engine"
	"probsyn/internal/eval"
	"probsyn/internal/gen"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
)

// errParse marks a flag-parse failure the FlagSet has already reported to
// stderr, so main neither reprints it nor masks the usage text.
var errParse = errors.New("flag parse error")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errParse) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// config is one run's flags, resolved.
type config struct {
	n, samples, points int
	seed               int64
	full               bool
	quantize           int
	workers            int          // -parallelism, resolved to a positive count
	pool               *engine.Pool // the one pool every DP of the run schedules on
}

// mode is one table of the evaluation. The driver opens the table's header
// line with "# name: title"; run finishes that line with the sizes it used
// and prints the CSV under it.
type mode struct {
	name, title string
	run         func(io.Writer) error
}

// modes is the ordered table behind the usage text, the dispatch and `all`.
func (c *config) modes() []mode {
	fig2 := func(k metric.Kind, cc float64) func(io.Writer) error {
		return func(w io.Writer) error { return c.fig2(w, k, cc) }
	}
	return []mode{
		{"fig2a", "sum squared relative error, c=0.5", fig2(metric.SSRE, 0.5)},
		{"fig2b", "sum squared relative error, c=1.0", fig2(metric.SSRE, 1.0)},
		{"fig2c", "sum squared error", fig2(metric.SSE, 0)},
		{"fig2d", "sum of relative errors, c=0.5", fig2(metric.SARE, 0.5)},
		{"fig2e", "sum of relative errors, c=1.0", fig2(metric.SARE, 1.0)},
		{"fig2f", "sum of absolute errors", fig2(metric.SAE, 0)},
		{"fig3a", "histogram DP time vs n, B=200, SSRE c=0.5, MystiQ-shaped", c.fig3a},
		{"fig3b", "histogram DP time vs buckets", c.fig3b},
		{"fig4a", "SSE wavelets, movie-shaped data", c.fig4a},
		{"fig4b", "SSE wavelets, synthetic TPC-H-shaped data", c.fig4b},
		{"frontier", "SAE cost vs budget", c.frontier},
		{"ablate-straddle", "exact vs closed-form tuple-pdf SSE oracle", c.ablateStraddle},
		{"ablate-approx", "exact vs (1+eps)-approximate DP", c.ablateApprox},
	}
}

// run executes the CLI against args, writing the tables to stdout. It is
// the whole command behind a testable seam: main only wires OS state.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	c := &config{}
	fs.IntVar(&c.n, "n", 2048, "domain size for figure 2 (paper: 10000)")
	fs.Int64Var(&c.seed, "seed", 42, "random seed")
	fs.IntVar(&c.samples, "samples", 3, "sampled-world repetitions")
	fs.IntVar(&c.points, "points", 10, "budgets per series")
	fs.BoolVar(&c.full, "full", false, "use the paper's full problem sizes (slow)")
	fs.IntVar(&c.workers, "parallelism", 1, "DP worker goroutines for the histogram and wavelet DPs (<= 0: one per CPU); results are identical at any setting")
	fs.IntVar(&c.quantize, "quantize", 0, "frontier mode: unrestricted wavelet quantization q (< 0: skip the unrestricted series)")
	modes := c.modes()
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: experiments [flags] <mode>|all\nmodes:")
		for _, m := range modes {
			fmt.Fprintf(fs.Output(), "  %-16s %s\n", m.name, m.title)
		}
		fmt.Fprintln(fs.Output(), "flags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		return errParse
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("want one mode, got %d arguments", fs.NArg())
	}
	if c.workers <= 0 {
		c.workers = runtime.NumCPU()
	}
	c.pool = engine.New(engine.Options{Workers: c.workers})
	name := fs.Arg(0)
	ran := false
	for _, m := range modes {
		if name != m.name && name != "all" {
			continue
		}
		ran = true
		fmt.Fprintf(stdout, "# %s: %s", m.name, m.title)
		if err := m.run(stdout); err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		if name == "all" {
			fmt.Fprintln(stdout)
		}
	}
	if !ran {
		return fmt.Errorf("unknown mode %q (see -h)", name)
	}
	return nil
}

// budgets returns ~points budgets spread over [1, bmax] like the paper's
// x-axes (which start at 1 bucket and end at n/10).
func budgets(bmax, points int) []int {
	if points < 2 {
		points = 2
	}
	out := []int{1}
	for k := 1; k < points; k++ {
		b := 1 + k*(bmax-1)/(points-1)
		if b > out[len(out)-1] {
			out = append(out, b)
		}
	}
	return out
}

// size is a mode's domain size: the scaled-down default, or the paper's
// under -full.
func (c *config) size(scaled, paper int) int {
	if c.full {
		return paper
	}
	return scaled
}

// linkage generates the MystiQ-shaped basic-model stand-in over n items
// and returns the generator's rng for the experiment's own draws.
func (c *config) linkage(n int) (*pdata.Basic, *rand.Rand) {
	rng := rand.New(rand.NewSource(c.seed))
	return gen.MystiQLinkage(rng, gen.DefaultMystiQ(n)), rng
}

// fig2 reproduces one panel of Figure 2: histogram error% vs buckets on the
// MystiQ-shaped linkage data, Probabilistic vs Expectation vs Sampled World.
func (c *config) fig2(w io.Writer, k metric.Kind, cc float64) error {
	n := c.size(c.n, 10000)
	src, rng := c.linkage(n)
	exp := &eval.HistogramExperiment{
		Source:  src,
		Metric:  k,
		Params:  metric.Params{C: cc},
		Budgets: budgets(n/10, c.points),
		Samples: c.samples,
		Rng:     rng,
		Pool:    c.pool,
	}
	start := time.Now()
	series, err := exp.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "; n=%d, m=%d, basic model (MystiQ-shaped), %v\n", n, src.M(), time.Since(start).Round(time.Millisecond))
	printErrorCSV(w, "buckets", series)
	return nil
}

// printErrorCSV prints one row per budget and one error% column per series,
// named as in the paper's legends.
func printErrorCSV(w io.Writer, budget string, series []eval.HistSeries) {
	header := []string{budget}
	for _, s := range series {
		name := s.Method.String()
		if s.Method == eval.SampledWorld {
			name = fmt.Sprintf("%s %d", name, s.Sample+1)
		}
		header = append(header, name)
	}
	fmt.Fprintln(w, strings.Join(header, ","))
	for i := range series[0].Points {
		row := []string{fmt.Sprintf("%d", series[0].Points[i].B)}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.3f", s.Points[i].ErrorPct))
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// fig3Row times one histogram DP at the oracle level (no plan, no
// admission: Figure 3 is about the DP alone) and prints its row: the x
// value, seconds, and the work counters.
func (c *config) fig3Row(w io.Writer, x int, o hist.Oracle, B int) error {
	start := time.Now()
	tab, err := hist.RunDPPool(o, B, c.pool)
	if err != nil {
		return err
	}
	secs := time.Since(start).Seconds()
	if _, err := tab.Histogram(B); err != nil {
		return err
	}
	st := tab.Stats()
	fmt.Fprintf(w, "%d,%.3f,%d,%d,%.1f,%d\n", x, secs,
		st.CandidatesScanned, st.CandidatesPruned, prunedPct(st), st.CostEvals)
	return nil
}

// prunedPct is the share of split candidates the DP pruned, in percent.
func prunedPct(st probsyn.DPStats) float64 {
	total := st.CandidatesScanned + st.CandidatesPruned
	if total == 0 {
		return 0
	}
	return 100 * float64(st.CandidatesPruned) / float64(total)
}

// fig3a: DP wall time vs n at fixed B (paper: B=200, n up to 30000).
func (c *config) fig3a(w io.Writer) error {
	ns := []int{1000, 2000, 4000, 8000}
	if c.full {
		ns = append(ns, 16000, 30000)
	}
	fmt.Fprintln(w, "\nn,seconds,scanned,pruned,pruned_pct,cost_evals")
	for _, n := range ns {
		src, _ := c.linkage(n)
		o, err := hist.NewOracle(src, metric.SSRE, metric.Params{C: 0.5})
		if err != nil {
			return err
		}
		if err := c.fig3Row(w, n, o, 200); err != nil {
			return err
		}
	}
	return nil
}

// fig3b: DP wall time vs B at fixed n (paper: n=10^4, B up to 1000).
func (c *config) fig3b(w io.Writer) error {
	n := c.size(c.n, 10000)
	src, _ := c.linkage(n)
	o, err := hist.NewOracle(src, metric.SSRE, metric.Params{C: 0.5})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, ", n=%d, SSRE c=0.5, MystiQ-shaped\n", n)
	fmt.Fprintln(w, "buckets,seconds,scanned,pruned,pruned_pct,cost_evals")
	for _, B := range budgets(n/10, c.points) {
		if err := c.fig3Row(w, B, o, B); err != nil {
			return err
		}
	}
	return nil
}

// fig4a: wavelet SSE error% vs coefficients on the movie-shaped data
// (paper: n=2^15, up to 5000 coefficients).
func (c *config) fig4a(w io.Writer) error {
	n := c.size(4096, 32768)
	src, _ := c.linkage(n)
	return c.fig4(w, src, n, c.size(640, 5000))
}

// fig4b: wavelet SSE error% vs coefficients on the TPC-H-shaped tuple pdf
// data (paper: n=2^15, up to 1000 coefficients).
func (c *config) fig4b(w io.Writer) error {
	n := c.size(4096, 32768)
	src := gen.TPCHLineitem(rand.New(rand.NewSource(c.seed)), gen.DefaultTPCH(n, 4*n))
	return c.fig4(w, src, n, c.size(128, 1000))
}

func (c *config) fig4(w io.Writer, src pdata.Source, n, bmax int) error {
	exp := &eval.WaveletExperiment{
		Source:  src,
		Budgets: budgets(bmax, c.points),
		Samples: c.samples,
		Rng:     rand.New(rand.NewSource(c.seed + 1)),
	}
	start := time.Now()
	series, err := exp.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "; n=%d, m=%d, %v\n", n, src.M(), time.Since(start).Round(time.Millisecond))
	printErrorCSV(w, "coefficients", series)
	return nil
}

// frontier: whole cost-vs-budget curves (the shape of Figures 2 and 4)
// from one DP run per family: a probsyn.BuildSweep for the histogram, one
// for the restricted wavelet and, unless -quantize < 0, one for the
// unrestricted wavelet. Every option rule is the build plan's.
func (c *config) frontier(w io.Writer) error {
	n := c.size(512, 2048)
	src, _ := c.linkage(n)
	bmax := n / 16
	fmt.Fprintf(w, ", every budget 1..%d from one DP run per family; n=%d, m=%d, workers=%d\n", bmax, n, src.M(), c.workers)
	fmt.Fprintln(w, "family,budget,terms,cost,sweep_seconds")
	series := []struct {
		family string
		opts   []probsyn.BuildOption
	}{
		{"histogram", nil},
		{"wavelet", []probsyn.BuildOption{probsyn.WithWavelet()}},
		{"wavelet-unrestricted", []probsyn.BuildOption{probsyn.WithWavelet(), probsyn.WithUnrestricted(c.quantize)}},
	}
	if c.quantize < 0 {
		series = series[:2]
	}
	for _, s := range series {
		var st probsyn.DPStats
		opts := append(s.opts, probsyn.WithParams(probsyn.Params{C: 0.5}), probsyn.WithPool(c.pool), probsyn.WithDPStats(&st))
		start := time.Now()
		fr, err := probsyn.BuildSweep(src, probsyn.SAE, bmax, opts...)
		if err != nil {
			return err
		}
		secs := time.Since(start).Seconds()
		fmt.Fprintf(w, "# %s dp: %d scanned, %d pruned (%.1f%%), %d cost evals\n",
			s.family, st.CandidatesScanned, st.CandidatesPruned, prunedPct(st), st.CostEvals)
		for b := 1; b <= fr.Bmax(); b++ {
			syn, err := fr.Synopsis(b)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s,%d,%d,%.6g,%.3f\n", s.family, b, syn.Terms(), fr.Cost(b), secs)
		}
	}
	return nil
}

// ablateStraddle quantifies DESIGN.md finding 3: on straddle-heavy tuple
// pdf data, the paper's closed-form SSE cost misprices buckets; we compare
// the bucketing it induces (priced exactly) against the exact-oracle
// optimum, plus the timing difference.
func (c *config) ablateStraddle(w io.Writer) error {
	n := c.size(512, 2048)
	cfg := gen.DefaultTPCH(n, 4*n)
	cfg.Spread = 8 // tight alternative windows maximize boundary straddling
	src := gen.TPCHLineitem(rand.New(rand.NewSource(c.seed)), cfg)
	exact := hist.NewSSETuple(src)
	closed := hist.NewSSETupleClosedForm(src)
	fmt.Fprintf(w, "; n=%d, m=%d, spread=%d\n", n, src.M(), cfg.Spread)
	fmt.Fprintln(w, "buckets,exact_cost,closedform_cost_repriced,regret_pct,exact_seconds,closedform_seconds")
	for _, B := range []int{4, 16, 64} {
		t0 := time.Now()
		hOpt, err := hist.OptimalPool(exact, B, c.pool)
		if err != nil {
			return err
		}
		dtExact := time.Since(t0)
		t0 = time.Now()
		hClosed, err := hist.OptimalPool(closed, B, c.pool)
		if err != nil {
			return err
		}
		dtClosed := time.Since(t0)
		repriced, err := hist.FromBoundaries(exact, hClosed.Boundaries())
		if err != nil {
			return err
		}
		regret := 100 * (repriced.Cost - hOpt.Cost) / hOpt.Cost
		fmt.Fprintf(w, "%d,%.4f,%.4f,%.3f,%.3f,%.3f\n",
			B, hOpt.Cost, repriced.Cost, regret, dtExact.Seconds(), dtClosed.Seconds())
	}
	return nil
}

// ablateApprox quantifies Theorem 5's trade-off: (1+eps)-approximate DP
// versus the exact DP, cost ratio and speedup. The approximation's level
// compression keeps ~(2B/eps)·ln(errorRange) candidate split points per
// cell instead of n, so it wins when B << n — the "larger relations"
// regime §3.5 targets; for B ~ n/10 the exact DP is already as fast.
func (c *config) ablateApprox(w io.Writer) error {
	n := c.size(4*c.n, 32768)
	src, _ := c.linkage(n)
	o, err := hist.NewOracle(src, metric.SSE, metric.Params{})
	if err != nil {
		return err
	}
	const B = 16
	fmt.Fprintf(w, "; n=%d, B=%d, SSE\n", n, B)
	t0 := time.Now()
	opt, err := hist.OptimalPool(o, B, c.pool)
	if err != nil {
		return err
	}
	exactSec := time.Since(t0).Seconds()
	fmt.Fprintln(w, "eps,cost_ratio,approx_seconds,exact_seconds")
	for _, eps := range []float64{0.05, 0.1, 0.25, 0.5, 1.0} {
		t0 = time.Now()
		apx, err := hist.ApproximatePool(o, B, eps, c.pool)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%.2f,%.5f,%.3f,%.3f\n", eps, apx.Cost/opt.Cost, time.Since(t0).Seconds(), exactSec)
	}
	return nil
}
