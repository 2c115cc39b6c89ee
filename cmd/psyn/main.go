// Command psyn builds histogram and wavelet synopses from a probabilistic
// dataset file (probsyn text format; see cmd/datagen to create one), and
// saves/loads them through the versioned binary synopsis envelope.
//
// Examples:
//
//	psyn -input data.pd -metric SSE -buckets 20
//	psyn -input data.pd -metric SARE -c 1.0 -buckets 50 -approx 0.25
//	psyn -input data.pd -metric SSE -buckets 64 -parallelism 0 -out h.syn
//	psyn -input data.pd -wavelet -metric SAE -coeffs 32 -parallelism 0 -out w.syn
//	psyn -input big.pd -wavelet -metric SAE -coeffs 32 -quantize 64
//	psyn -in h.syn
//
// With -sweep, one DP run builds the whole budget frontier: the
// cost-vs-budget curve prints as CSV up to the largest distinct budget
// (the domain size caps it), and -out (a directory) receives one
// key-encoded catalog file for every budget 1..-buckets/-coeffs — each
// byte-identical to a single-budget build, and the directory equal to
// the one psynd's POST /v1/sweep leaves, because both write through
// internal/catalog's ExtractAndPublish:
//
//	psyn -input data.pd -metric SSE -buckets 32 -sweep -out ./catalog
//
// With -append, the items of a second (value-model) dataset file extend
// the -input dataset: -save-data persists the merged dataset first, then
// every key-encoded synopsis for that dataset in the -out catalog
// directory is rewritten from one sweep per (family, metric, c, q) group
// over the merged data — the files a psynd POST /v1/append republishes
// from its live frontiers, through the same write path:
//
//	psyn -input data.pd -append more.pd -dataset ds -out ./catalog -save-data data.pd
//
// With -query, a batch request file (the POST /v1/query JSON body: ops of
// estimate/rangesum against catalog keys) is answered offline from the
// -out catalog directory, writing exactly the bytes psynd would serve —
// the two responses are cmp-identical over the same catalog:
//
//	psyn -query batch.json -out ./catalog
//
// With -pack, a catalog directory's .psyn envelopes are packed into the
// flat file psynd boots from (see internal/catalog). Every later write
// into the directory removes it until the next pack. Packing is
// deterministic: the same logical catalog packs to the same bytes here,
// at a psynd's shutdown, or anywhere else:
//
//	psyn -pack ./catalog
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/query"
)

// errParse marks a flag-parse failure the FlagSet has already reported to
// stderr, so main neither reprints it nor masks the usage text.
var errParse = errors.New("flag parse error")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errParse) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "psyn:", err)
		os.Exit(1)
	}
}

// run executes the CLI against args, writing reports to stdout. It is the
// whole command behind a testable seam: main only wires OS state.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("psyn", flag.ContinueOnError)
	var (
		flagInput    = fs.String("input", "", "dataset file (required unless -in is given)")
		flagMetric   = fs.String("metric", "SSE", "error metric: SSE, SSE-fixed (histograms only; a wavelet's is its SSE synopsis), SSRE, SAE, SARE, MAE, MARE")
		flagC        = fs.Float64("c", 0.5, "sanity constant for relative-error metrics")
		flagBuckets  = fs.Int("buckets", 16, "histogram bucket budget")
		flagApprox   = fs.Float64("approx", 0, "if > 0, build a (1+eps)-approximate histogram with this eps")
		flagEqui     = fs.Bool("equidepth", false, "build the equi-depth heuristic instead of the optimal histogram")
		flagWavelet  = fs.Bool("wavelet", false, "build a wavelet synopsis instead of a histogram")
		flagCoeffs   = fs.Int("coeffs", 16, "wavelet coefficient budget")
		flagQuant    = fs.Int("quantize", -1, "if >= 0, quantize the restricted wavelet DP's incoming values onto grids of q points (q >= 2; approximate, O(n q B) states, domains far beyond the exact DP build in seconds; prints the certified bound on the gap to the exact optimum). Wavelet DP metrics only: SSRE, SAE, SARE, MAE, MARE (not the greedy-exact SSE build, not histograms)")
		flagParallel = fs.Int("parallelism", 1, "DP worker goroutines, the CPUs a histogram or non-SSE wavelet build uses, -shards builds included (<= 0: one per CPU; the default 1 builds shards one at a time, -parallelism 0 builds up to one per CPU at once); output is identical at any setting (the SSE wavelet build is greedy and ignores it)")
		flagOut      = fs.String("out", "", "save the built synopsis to this file in the binary envelope (-in prints it back); with -sweep, -append or -query, a catalog directory")
		flagIn       = fs.String("in", "", "load a saved synopsis instead of building one")
		flagSweep    = fs.Bool("sweep", false, "build the whole budget frontier (every budget up to -buckets/-coeffs) from one DP run and print budget,terms,cost CSV")
		flagDataset  = fs.String("dataset", "", "dataset name used in -sweep/-append catalog filenames (default: the -input file stem)")
		flagAppend   = fs.String("append", "", "value-model dataset file whose items extend the -input dataset; every synopsis for -dataset in the -out catalog directory is revalidated and rewritten")
		flagSaveData = fs.String("save-data", "", "with -append: write the merged dataset to this file")
		flagQuery    = fs.String("query", "", "batch request file (POST /v1/query JSON body) answered offline from the -out catalog directory; the response JSON is written to stdout, byte-identical to a served one")
		flagPack     = fs.String("pack", "", "pack this catalog directory's synopses into its flat file (catalog.flat), which psynd -catalog boots from; deterministic, byte-identical to psynd's shutdown pack; any later write into the directory removes it")
		flagShards   = fs.Int("shards", 0, "if >= 2, build a sharded histogram: split the domain into this many contiguous ranges, build each within -parallelism, and merge, reporting a certified additive suboptimality bound; -out saves the merged synopsis to that file, never into a catalog (the merge is not the build a key names). Not with -wavelet: past the exact DP's reach, build unsharded with -quantize")
		flagVerbose  = fs.Bool("v", false, "after a histogram or coefficient-tree wavelet DP build (plain, -sweep, or -shards), report the DP work counters: split candidates scanned vs. pruned and cost evaluations (see probsyn.DPStats); non-DP builds print nothing")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		return errParse
	}
	if *flagPack != "" {
		return runPack(stdout, *flagPack)
	}
	if *flagQuery != "" {
		return runQuery(stdout, *flagQuery, *flagOut, *flagC)
	}
	if *flagIn != "" {
		return loadSynopsis(stdout, *flagIn)
	}
	if *flagInput == "" {
		fs.Usage()
		return fmt.Errorf("missing -input (or -in)")
	}
	f, err := os.Open(*flagInput)
	if err != nil {
		return err
	}
	defer f.Close()
	src, err := probsyn.ReadDataset(f)
	if err != nil {
		return err
	}

	m, err := probsyn.ParseMetric(*flagMetric)
	if err != nil {
		return err
	}
	p := probsyn.Params{C: *flagC}
	opts := []probsyn.BuildOption{probsyn.WithParams(p), probsyn.WithParallelism(*flagParallel)}
	var dpStats probsyn.DPStats
	if *flagVerbose {
		opts = append(opts, probsyn.WithDPStats(&dpStats))
	}
	quant := 0 // the restricted-DP grid size, when the approximate path is selected
	if *flagQuant >= 0 {
		if !*flagWavelet {
			return fmt.Errorf("-quantize is a wavelet option (add -wavelet)")
		}
		opts = append(opts, probsyn.WithQuantize(*flagQuant))
		quant = *flagQuant
	}

	dataset := *flagDataset
	if dataset == "" {
		dataset = strings.TrimSuffix(filepath.Base(*flagInput), filepath.Ext(*flagInput))
	}
	budget := *flagBuckets
	if *flagWavelet {
		budget = *flagCoeffs
		opts = append(opts, probsyn.WithWavelet())
	}

	if *flagAppend != "" {
		return runAppend(stdout, src, *flagAppend, dataset, *flagOut, *flagSaveData, *flagParallel)
	}

	if *flagSweep {
		if *flagEqui || *flagApprox > 0 {
			return fmt.Errorf("-sweep needs the exact DP (drop -equidepth/-approx)")
		}
		if *flagShards >= 2 {
			return fmt.Errorf("-sweep cannot shard (drop -shards)")
		}
		if err := runSweep(stdout, src, m, p, budget, dataset, *flagOut, quant, opts); err != nil {
			return err
		}
		reportDPStats(stdout, dpStats, *flagWavelet)
		return nil
	}

	if *flagShards >= 2 {
		if *flagWavelet {
			return fmt.Errorf("-shards builds histograms only (drop -wavelet; past the exact DP's reach, use -quantize)")
		}
		if *flagEqui || *flagApprox > 0 {
			return fmt.Errorf("-shards needs the exact DP (drop -equidepth/-approx)")
		}
		if err := runSharded(stdout, src, m, budget, *flagShards, *flagOut, opts); err != nil {
			return err
		}
		reportDPStats(stdout, dpStats, false)
		return nil
	}

	var syn probsyn.Synopsis
	if *flagWavelet {
		syn, err = buildWavelet(stdout, src, m, budget, *flagQuant, opts)
	} else {
		syn, err = buildHistogram(stdout, src, m, p, budget, *flagApprox, *flagEqui, opts)
	}
	if err != nil {
		return err
	}
	reportDPStats(stdout, dpStats, *flagWavelet)
	if *flagOut != "" {
		return saveSynopsis(stdout, *flagOut, syn)
	}
	return nil
}

// reportDPStats prints the DP's work counters collected via
// WithDPStats (-v). A zero struct — no DP ran, or -v was off — prints
// nothing.
func reportDPStats(stdout io.Writer, st probsyn.DPStats, wavelet bool) {
	total := st.CandidatesScanned + st.CandidatesPruned
	if total == 0 {
		return
	}
	evals := "bucket-cost"
	if wavelet {
		evals = "point-error"
	}
	fmt.Fprintf(stdout, "dp: %d split candidates, %d scanned, %d pruned (%.1f%%), %d %s evals\n",
		total, st.CandidatesScanned, st.CandidatesPruned,
		100*float64(st.CandidatesPruned)/float64(total), st.CostEvals, evals)
}

// runAppend extends a value-model dataset with the items of a second
// dataset file and rewrites every key-encoded synopsis for the dataset in
// the catalog directory — the offline twin of a psynd POST /v1/append,
// through the same write (catalog.Mutation.Republish): the merged dataset
// is written while the groups' frontiers build, and every key is
// extracted and published from its group's frontier once the dataset is
// on disk. psyn retains no DP state between runs, so the frontier is
// always the server's "fresh" case: one sweep over the merged data,
// byte-identical to a retained frontier that absorbed the append.
func runAppend(stdout io.Writer, src probsyn.Source, appendPath, dataset, outDir, saveData string, parallelism int) error {
	base, ok := src.(*probsyn.ValuePDF)
	if !ok {
		return fmt.Errorf("-append is defined over the value-pdf model; -input is another model")
	}
	af, err := os.Open(appendPath)
	if err != nil {
		return err
	}
	defer af.Close()
	asrc, err := probsyn.ReadDataset(af)
	if err != nil {
		return err
	}
	avp, ok := asrc.(*probsyn.ValuePDF)
	if !ok {
		return fmt.Errorf("-append file must be a value-model dataset")
	}
	if outDir == "" {
		return fmt.Errorf("-append needs -out pointing at a saved catalog directory")
	}
	des, err := os.ReadDir(outDir)
	if err != nil {
		return err
	}
	var keys []catalog.Key
	for _, de := range des {
		key, err := catalog.ParseFilename(de.Name())
		if err != nil || key.Dataset != dataset {
			continue
		}
		keys = append(keys, key)
	}
	if len(keys) == 0 {
		return fmt.Errorf("no catalog files for dataset %q in %s", dataset, outDir)
	}
	fmt.Fprintf(stdout, "appending %d items to %s (domain %d -> %d)\n", avp.N, dataset, base.N, base.N+avp.N)
	// One admission token: the groups' sweeps run one at a time, as they
	// always have, and only the dataset write overlaps them.
	pool := engine.New(engine.Options{Workers: parallelism, MaxBuilds: 1})
	_, written, err := catalog.Mutation{Items: avp.Items}.Republish(base, saveData, outDir, nil, keys,
		func(top catalog.Key, merged *probsyn.ValuePDF) (probsyn.Frontier, error) {
			m, opts, err := top.BuildOptions()
			if err != nil {
				return nil, err
			}
			return probsyn.BuildSweep(merged, m, top.Budget, append(opts, probsyn.WithPool(pool))...)
		})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "revalidated %d synopses in %s\n", written, outDir)
	if saveData != "" {
		fmt.Fprintf(stdout, "saved merged dataset to %s\n", saveData)
	}
	return nil
}

// runPack loads every .psyn envelope in the catalog directory and packs
// the flat file beside them. The entry ordering and serialization
// are fixed by the format, so this file is byte-identical to the one a
// psynd packs at shutdown for the same logical catalog — replicas can
// rsync it, cmp it, or content-address it.
func runPack(stdout io.Writer, dir string) error {
	c := catalog.New()
	n, err := c.LoadDir(dir)
	if err != nil {
		return err
	}
	path := catalog.FlatPath(dir)
	if _, err := catalog.Pack(path, c.List()); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "packed %d synopses into %s (%d bytes)\n", n, path, st.Size())
	return nil
}

// runQuery answers a batch request file offline from a catalog
// directory: the same decoder, resolver (catalog.Resolve, c defaulting to
// -c as psynd defaults its own), evaluator and canonical serialization as
// psynd's POST /v1/query, so the bytes written to stdout are
// cmp-identical to the served response over the same catalog. Nothing
// else is written to stdout — reports would break the byte identity.
func runQuery(stdout io.Writer, reqPath, catalogDir string, c float64) error {
	if catalogDir == "" {
		return fmt.Errorf("-query needs -out pointing at a saved catalog directory")
	}
	data, err := os.ReadFile(reqPath)
	if err != nil {
		return err
	}
	var req query.BatchRequest
	// Same decoder as the server's /v1/query, so the two paths accept
	// exactly the same bodies and reject with the same errors.
	if err := query.DecodeBatch(data, &req); err != nil {
		return fmt.Errorf("bad query body: %w", err)
	}
	if err := req.Validate(); err != nil {
		return err
	}
	// The offline synopsis source: one saved file per catalog key. A file
	// that is missing or unreadable is "no such synopsis" — the answer the
	// server gives for an uncataloged key, so error results match too.
	get := func(key catalog.Key) (query.Querier, *query.OpError) {
		syn, err := catalog.ReadFile(filepath.Join(catalogDir, key.Filename()))
		if err != nil {
			return nil, nil
		}
		return query.Compile(syn), nil
	}
	var resp query.BatchResponse
	query.EvalBatch(&req, catalog.Resolver(c, get), &resp)
	return query.EncodeResponse(stdout, &resp)
}

// runSweep builds the budget frontier in one DP run, prints the
// cost-vs-budget curve, and (with -out) publishes every requested budget
// 1..budget as a key-encoded catalog file — the files psynd writes for
// the same /v1/sweep, budgets past the clamped Bmax repeating the Bmax
// synopsis.
func runSweep(stdout io.Writer, src probsyn.Source, m probsyn.Metric, p probsyn.Params, budget int, dataset, outDir string, quant int, opts []probsyn.BuildOption) error {
	fr, err := probsyn.BuildSweep(src, m, budget, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "frontier over n=%d: budgets 1..%d from one DP run\n", src.Domain(), fr.Bmax())
	if quant > 0 {
		fmt.Fprintf(stdout, "quantized restricted DP (q=%d): every cost within %.6g of its restricted optimum\n", quant, probsyn.ApproxBound(fr))
	}
	fmt.Fprintln(stdout, "budget,terms,cost")
	for b := 1; b <= fr.Bmax(); b++ {
		syn, err := fr.Synopsis(b)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%d,%d,%.6g\n", b, syn.Terms(), syn.ErrorCost())
	}
	if outDir == "" {
		return nil
	}
	top, err := fr.Synopsis(fr.Bmax())
	if err != nil {
		return err
	}
	key, err := catalog.KeyFor(dataset, top, m.String(), budget, p.C, quant)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	written, err := catalog.ExtractAndPublish(outDir, nil, key.Sweep(), func(catalog.Key) (probsyn.Frontier, error) { return fr, nil })
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "saved %d synopses to %s\n", written, outDir)
	return nil
}

// runSharded builds a k-way sharded histogram, printing the merged cost
// and the certified additive suboptimality bound, and (with -out) saves
// the merged synopsis to that one file, as any single build does. It
// writes no catalog key: a key names the unsharded build over its
// dataset, which is what psynd serves and a mutation republishes.
func runSharded(stdout io.Writer, src probsyn.Source, m probsyn.Metric, budget, shards int, out string, opts []probsyn.BuildOption) error {
	res, err := probsyn.BuildSharded(src, m, budget, shards, opts...)
	if err != nil {
		return err
	}
	syn := res.Synopsis
	fmt.Fprintf(stdout, "sharded histogram %v build over n=%d: %d shards, budget %d, expected error %.6g\n",
		m, src.Domain(), shards, budget, syn.ErrorCost())
	if res.Bound == 0 {
		fmt.Fprintln(stdout, "merge is exact: cost equals the unsharded optimum")
	} else {
		fmt.Fprintf(stdout, "suboptimality bound: within %.6g of the unsharded optimum\n", res.Bound)
	}
	if out == "" {
		return nil
	}
	return saveSynopsis(stdout, out, syn)
}

func buildHistogram(stdout io.Writer, src probsyn.Source, m probsyn.Metric, p probsyn.Params, buckets int, approx float64, equi bool, opts []probsyn.BuildOption) (probsyn.Synopsis, error) {
	var (
		h   *probsyn.Histogram
		err error
		how string
	)
	switch {
	case equi:
		h, err = probsyn.EquiDepthHistogram(src, m, p, buckets)
		how = "equi-depth"
	case approx > 0:
		var s probsyn.Synopsis
		s, err = probsyn.Build(src, m, buckets, append(opts, probsyn.WithEps(approx))...)
		if err == nil {
			h = s.(*probsyn.Histogram)
		}
		how = fmt.Sprintf("(1+%g)-approximate", approx)
	default:
		var s probsyn.Synopsis
		s, err = probsyn.Build(src, m, buckets, opts...)
		if err == nil {
			h = s.(*probsyn.Histogram)
		}
		how = "optimal"
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s %v histogram over n=%d (m=%d pairs): %d buckets, expected error %.6g\n",
		how, m, src.Domain(), src.M(), h.B(), h.Cost)
	fmt.Fprintln(stdout, "start,end,width,representative,bucket_cost")
	for _, b := range h.Buckets {
		fmt.Fprintf(stdout, "%d,%d,%d,%.6g,%.6g\n", b.Start, b.End, b.Width(), b.Rep, b.Cost)
	}
	return h, nil
}

// buildWavelet builds and prints a wavelet synopsis; opts already select
// the family (WithWavelet, and WithQuantize if asked).
func buildWavelet(stdout io.Writer, src probsyn.Source, m probsyn.Metric, coeffs, quantize int, opts []probsyn.BuildOption) (probsyn.Synopsis, error) {
	if quantize >= 0 {
		// Quantized restricted DP: build through the frontier (bit-identical
		// to probsyn.Build, per the sweep guarantee) so the §4.2 additive
		// suboptimality bound can be reported alongside the true cost.
		fr, err := probsyn.BuildSweep(src, m, coeffs, opts...)
		if err != nil {
			return nil, err
		}
		s, err := fr.Synopsis(fr.Bmax()) // the frontier was built at coeffs: its top budget is the build
		if err != nil {
			return nil, err
		}
		syn := s.(*probsyn.WaveletSynopsis)
		fmt.Fprintf(stdout, "quantized restricted (q=%d) %v wavelet synopsis over n=%d (padded %d): %d coefficients, expected error %.6g (within %.6g of the restricted optimum)\n",
			quantize, m, src.Domain(), syn.N, syn.B(), syn.Cost, probsyn.ApproxBound(fr))
		printCoeffs(stdout, syn)
		return syn, nil
	}
	if m == probsyn.SSE {
		syn, rep, err := probsyn.SSEWavelet(src, coeffs)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "SSE-optimal wavelet synopsis over n=%d (padded %d): %d coefficients\n",
			src.Domain(), syn.N, syn.B())
		fmt.Fprintf(stdout, "expected SSE %.6g (irreducible variance %.6g, dropped energy %.6g = %.2f%%)\n",
			rep.ExpectedSSE, rep.VarianceFloor, rep.DroppedMuSq(), rep.ErrorPercent())
		printCoeffs(stdout, syn)
		return syn, nil
	}
	// Non-SSE metrics run the restricted coefficient-tree DP through the
	// unified constructor, so -parallelism applies here exactly as it does
	// to histogram builds.
	s, err := probsyn.Build(src, m, coeffs, opts...)
	if err != nil {
		return nil, err
	}
	syn := s.(*probsyn.WaveletSynopsis)
	fmt.Fprintf(stdout, "restricted %v wavelet synopsis over n=%d (padded %d): %d coefficients, expected error %.6g\n",
		m, src.Domain(), syn.N, syn.B(), syn.Cost)
	printCoeffs(stdout, syn)
	return syn, nil
}

func printCoeffs(stdout io.Writer, syn *probsyn.WaveletSynopsis) {
	fmt.Fprintln(stdout, "index,value")
	for k, idx := range syn.Indices {
		fmt.Fprintf(stdout, "%d,%.6g\n", idx, syn.Values[k])
	}
}

// saveSynopsis writes the synopsis through the catalog layer's shared
// file path — the same binary envelope psynd persists, so an offline -out
// file and a served catalog entry for the same build are interchangeable.
func saveSynopsis(stdout io.Writer, path string, syn probsyn.Synopsis) error {
	n, err := catalog.WriteFile(path, syn)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "saved %d-term synopsis to %s (%d bytes)\n", syn.Terms(), path, n)
	return nil
}

// loadSynopsis reads a saved synopsis through the catalog layer's shared
// load path and summarizes it.
func loadSynopsis(stdout io.Writer, path string) error {
	syn, err := catalog.ReadFile(path)
	if err != nil {
		return err
	}
	switch s := syn.(type) {
	case *probsyn.Histogram:
		fmt.Fprintf(stdout, "histogram synopsis: n=%d, %d buckets, expected error %.6g\n", s.N, s.Terms(), s.ErrorCost())
		fmt.Fprintln(stdout, "start,end,width,representative,bucket_cost")
		for _, b := range s.Buckets {
			fmt.Fprintf(stdout, "%d,%d,%d,%.6g,%.6g\n", b.Start, b.End, b.Width(), b.Rep, b.Cost)
		}
	case *probsyn.WaveletSynopsis:
		fmt.Fprintf(stdout, "wavelet synopsis: n=%d (padded), %d coefficients, expected error %.6g\n", s.N, s.Terms(), s.ErrorCost())
		printCoeffs(stdout, s)
	default:
		fmt.Fprintf(stdout, "synopsis: %d terms, expected error %.6g\n", syn.Terms(), syn.ErrorCost())
	}
	return nil
}
