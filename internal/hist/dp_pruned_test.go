package hist

// Property tests for the monotonicity-pruned split reduction: the pruned
// DP must produce math.Float64bits-identical opt/choice tables to the
// dense reference (denseTable, dense_test.go) for every oracle family, both
// combine rules, and every worker count — and the DPStats accounting must
// balance exactly (every candidate is either scanned or pruned). Run
// under -race this also exercises the tile schedule.

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"probsyn/internal/engine"
	"probsyn/internal/gen"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
)

// splitCandidates is the exact number of split candidates a full DP over
// (n, B) reduces: level b at end e scans i in [b-1, e).
func splitCandidates(n, B int) int64 {
	var total int64
	for e := 0; e < n; e++ {
		top := B
		if e+1 < top {
			top = e + 1
		}
		for b := 1; b < top; b++ {
			total += int64(e - b + 1)
		}
	}
	return total
}

// dipOracle halves the cost of every bucket ending at or after at: a
// non-negative cost function a DP row is not monotone under, aggregated
// by the given rule.
type dipOracle struct {
	Oracle
	at      int
	combine Combine
}

func (d dipOracle) Combine() Combine { return d.combine }

func (d dipOracle) Cost(s, e int) (float64, float64) {
	c, rep := d.Oracle.Cost(s, e)
	if e >= d.at {
		c /= 2
	}
	return c, rep
}

func checkStatsBalance(t *testing.T, tag string, tab *DPTable) {
	t.Helper()
	st := tab.Stats()
	if got, want := st.CandidatesScanned+st.CandidatesPruned, splitCandidates(tab.n, tab.bmax); got != want {
		t.Fatalf("%s: scanned %d + pruned %d = %d candidates, want %d",
			tag, st.CandidatesScanned, st.CandidatesPruned, got, want)
	}
	if st.CostEvals <= 0 {
		t.Fatalf("%s: no cost evaluations recorded", tag)
	}
}

// TestPrunedDPBitIdentical: pruned vs dense across all oracle families ×
// {Sum, Max} × workers {1, 2, NumCPU}, over all three data models.
func TestPrunedDPBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const n, B = 96, 9
	for srcName, src := range parallelSources(rng, n) {
		for _, k := range []metric.Kind{metric.SSE, metric.SSEFixed, metric.SSRE,
			metric.SAE, metric.SARE, metric.MAE, metric.MARE} {
			o, err := NewOracle(src, k, metric.Params{C: 0.5})
			if err != nil {
				t.Fatalf("%s/%v: %v", srcName, k, err)
			}
			dense := denseTable(o, B)
			if ds := dense.Stats(); ds.CandidatesPruned != 0 {
				t.Fatalf("%s/%v: dense reference pruned %d candidates", srcName, k, ds.CandidatesPruned)
			}
			checkStatsBalance(t, srcName+"/dense", dense)
			for _, w := range []int{1, 2, runtime.NumCPU()} {
				pruned, err := RunDPPool(o, B, finePool(w))
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", srcName, k, w, err)
				}
				tablesIdentical(t, dense, pruned)
				checkStatsBalance(t, srcName+"/pruned", pruned)
			}
		}
	}
}

// TestPrunedDPAdversarial drives the two extremes: a single spike in a
// flat domain, where zero-cost prefixes let the incumbent stop fire
// almost immediately (pruning must engage, pinned via DPStats), and an
// exponentially growing ramp, where the argmin sits at the far right of
// every scan so the monotone stop almost never helps — both must stay
// bit-identical to the dense reference. A third input breaks the
// monotonicity the pruning leans on: every bucket ending at or after dipAt
// costs half, so every row drops there and its certificate stops in the
// middle of an end block, whatever the tile shape. Ends up to dipAt must
// still prune on the certificate and ends past it must not, both for a
// level that reads the certificate inside its own band and for a band's
// first level, which reads the snapshot the band above left behind.
func TestPrunedDPAdversarial(t *testing.T) {
	const n, B = 256, 12
	spike := make([]float64, n)
	spike[n/2] = 1000 // one spike in a flat domain
	equal := make([]float64, n)
	for i := range equal {
		equal[i] = 1 // all-equal: every candidate ties, argmin must stay leftmost
	}
	ramp := make([]float64, n)
	for i := range ramp {
		ramp[i] = math.Pow(1.2, float64(i))
	}
	const dipAt = 8*13 + 3
	steps := make([]float64, n)
	for i := range steps {
		steps[i] = float64(i/16) + float64(i%3)/4
	}
	cases := []struct {
		name       string
		data       []float64
		dip        bool
		minPrunedF float64 // lower bound on the pruned fraction, engaged case
	}{
		{"spike", spike, false, 0.5},
		{"equal", equal, false, 0.5},
		{"ramp", ramp, false, 0},
		{"dip", steps, true, 0},
	}
	for _, tc := range cases {
		src := pdata.Deterministic(tc.data)
		for _, k := range []metric.Kind{metric.SSE, metric.SSRE, metric.MAE} {
			o, err := NewOracle(src, k, metric.Params{C: 0.5})
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, k, err)
			}
			if tc.dip {
				// Priced by the O(1) SSE oracle whatever k, combined as k
				// combines: any non-negative cost function is a valid input
				// under either rule, and MAE's cold search bucket by bucket
				// would be most of this test's time.
				o = dipOracle{NewSSEValue(src), dipAt, o.Combine()}
			}
			dense := denseTable(o, B)
			serial, err := RunDPPool(o, B, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, ts := range tileShapes {
				workers := []int{2}
				if ts == defaultTiles {
					workers = []int{1, 2, runtime.NumCPU()}
				}
				for _, w := range workers {
					pruned, err := runDP(o, B, finePool(w), ts)
					if err != nil {
						t.Fatalf("%s/%v tiles=%v workers=%d: %v", tc.name, k, ts, w, err)
					}
					tablesIdentical(t, dense, pruned)
					checkStatsBalance(t, tc.name, pruned)
					if got, want := pruned.Stats(), serial.Stats(); got != want {
						t.Fatalf("%s/%v tiles=%v workers=%d: stats %+v, serial %+v", tc.name, k, ts, w, got, want)
					}
				}
			}
			if tc.dip {
				// The case is only worth its name if the certificates did
				// stop where it put the dip: row 0 under either combine rule
				// (the {1 1 1} shape makes every row a band edge), every row
				// under Sum (the default shape's band edge is row 8).
				for b := 0; b < B-1 && (b == 0 || o.Combine() == Sum); b++ {
					if serial.mono[b] != dipAt {
						t.Fatalf("dip/%v: row %d certified up to %d, want it to stop at %d", k, b, serial.mono[b], dipAt)
					}
				}
			}
			st := serial.Stats()
			frac := float64(st.CandidatesPruned) / float64(st.CandidatesScanned+st.CandidatesPruned)
			if frac < tc.minPrunedF {
				t.Fatalf("%s/%v: pruned fraction %.3f, want >= %.2f", tc.name, k, frac, tc.minPrunedF)
			}
			t.Logf("%s/%v: scanned %d, pruned %d (%.1f%%), cost evals %d",
				tc.name, k, st.CandidatesScanned, st.CandidatesPruned, 100*frac, st.CostEvals)
		}
	}
	t.Run("blockEdges", testScanBlockEdges)
}

// testScanBlockEdges puts the argmin of one scan on the first and on the
// last candidate of a block (block 1 closes candidates 15..30 with
// costs[16..31]), on the candidate next to the seed on either side (a tie
// below the seed wins, one above loses: the smallest index keeps the
// argmin) and two blocks below it, at the range's ends, and an exact tie
// across skipped blocks: candidate 10, the seed, prices 1, and so does the
// cheapest candidate of each later block, whose bound therefore equals the
// incumbent exactly — on a certified row the blocks are skipped and the
// seed keeps the argmin, after a scan of itself and the ten candidates
// below it. The zero prev row is scanned certified and uncertified.
func testScanBlockEdges(t *testing.T) {
	const e = 63
	prev := make([]float64, e+1)
	for _, isSum := range []bool{true, false} {
		for _, monoOK := range []bool{true, false} {
			for _, tc := range []struct {
				name      string
				cheap     []int // closing-cost indices priced 1; the rest price 5
				seed, arg int
				scanned   int64 // -1: not checked
			}{
				{"first", []int{16}, 40, 15, -1},
				{"last", []int{31}, 40, 30, -1},
				{"tie below", []int{20, 21}, 20, 19, -1},
				{"tie above", []int{20, 21}, 19, 19, -1},
				{"tie two blocks below", []int{5, 40}, 39, 4, -1},
				{"seed at lo", []int{50}, 0, 49, -1},
				{"seed at hi-1", []int{3}, e - 1, 2, -1},
				{"tie", []int{11, 20, 41, 63}, 10, 10, 11},
			} {
				costs := make([]float64, e+1)
				for s := range costs {
					costs[s] = 5
				}
				for _, s := range tc.cheap {
					costs[s] = 1
				}
				got, st := checkScan(t, prev, costs, 0, e, tc.seed, isSum, monoOK)
				if int(got.arg) != tc.arg {
					t.Fatalf("%s (sum %v, certified %v): argmin %d, want %d", tc.name, isSum, monoOK, got.arg, tc.arg)
				}
				if monoOK && tc.scanned >= 0 && st.CandidatesScanned != tc.scanned {
					t.Fatalf("%s (sum %v): scanned %d candidates, want %d", tc.name, isSum, st.CandidatesScanned, tc.scanned)
				}
			}
		}
	}
}

// scanPalette spans what a block bound must survive: zero, a subnormal,
// ties, sums that round away the smaller term or overflow, and +Inf, which
// a row holds at ends no split of its level can price finitely.
var scanPalette = []float64{
	0, math.SmallestNonzeroFloat64, 0.1, 0.2, 0.3, 1, 2, 3,
	1 << 53, 1e300, math.MaxFloat64, math.Inf(1),
}

// checkScan runs scanFromSeed over candidates [lo, hi) of end hi from the
// seed, and holds it to reduceSplits over the same range read as
// runColumns reads it (an empty result is {+Inf, lo}): value bits,
// argmin, and scanned + pruned = hi - lo.
func checkScan(t *testing.T, prev, costs []float64, lo, hi, seed int, isSum, monoOK bool) (minPartial, DPStats) {
	t.Helper()
	nb := hi/scanBlock + 1
	bmin, bcm := make([]float64, nb), make([]float64, nb)
	blockMinima(costs, hi, bmin, bcm)
	var st DPStats
	got := scanFromSeed(prev, costs, bmin, bcm, lo, hi, seed, isSum, monoOK, &st)
	want := reduceSplits(prev, costs, lo, hi, isSum)
	if want.arg < 0 {
		want = minPartial{value: math.Inf(1), arg: int32(lo)}
	}
	if math.Float64bits(got.value) != math.Float64bits(want.value) || got.arg != want.arg {
		t.Fatalf("[%d, %d) seed %d sum %v mono %v: pruned scan (%v, %d), dense (%v, %d)\nprev %v\ncosts %v",
			lo, hi, seed, isSum, monoOK, got.value, got.arg, want.value, want.arg, prev, costs)
	}
	if n := st.CandidatesScanned + st.CandidatesPruned; n != int64(hi-lo) {
		t.Fatalf("[%d, %d): scanned %d + pruned %d, want %d candidates", lo, hi, st.CandidatesScanned, st.CandidatesPruned, hi-lo)
	}
	return got, st
}

// FuzzPrunedScan holds one split scan to the dense one. Bytes: the end
// (1 to 80 candidates, up to six blocks), the range's start below it, the
// seed's offset into the range, then the costs and prev rows, each byte a
// palette value (missing bytes read 0) or past the palette a multiple of
// 1/7; prev is sorted when it is to be certified monotone. The corpus adds
// a tie just below the seed (it must win) and just above (it must lose),
// an all-+Inf row, seeds at lo and hi-1, and an uncertified row.
func FuzzPrunedScan(f *testing.F) {
	f.Add([]byte{40, 3, 20, 5, 5, 5, 1, 0, 0}, true, true)
	f.Add([]byte{79, 15, 16, 11, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, false, true)
	f.Add([]byte{33, 0, 0, 10, 10, 10, 9, 11, 255, 254}, true, false)
	// costs[20] = costs[21] = 1, the rest 3 but for costs[26] = 0.3, and
	// prev is 0 up to candidate 20 and 1 past it: candidates 19 and 20
	// tie, and candidate 25 keeps block 1 from being skipped whole.
	tie := slices.Concat([]byte{39, 0, 20}, bytes.Repeat([]byte{7}, 20), []byte{5, 5, 7, 7, 7, 7, 4},
		bytes.Repeat([]byte{7}, 14), bytes.Repeat([]byte{0}, 21), bytes.Repeat([]byte{5}, 20))
	f.Add(tie, true, true)
	f.Add(slices.Concat([]byte{39, 0, 19}, tie[3:]), false, true)
	f.Add(slices.Concat([]byte{39, 0, 20}, bytes.Repeat([]byte{11}, 82)), true, true)
	f.Add(slices.Concat([]byte{39, 5, 0}, bytes.Repeat([]byte{7}, 30), []byte{5}), true, true)
	f.Add(slices.Concat([]byte{39, 5, 34}, bytes.Repeat([]byte{7}, 8), []byte{5}, bytes.Repeat([]byte{7}, 32)), false, true)
	uncertified := []byte{39, 0, 10}
	for i := range 82 {
		uncertified = append(uncertified, byte(31-i%20))
	}
	f.Add(uncertified, true, false)
	f.Fuzz(func(t *testing.T, data []byte, isSum, monoOK bool) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		value := func() float64 {
			b := next()
			if b < len(scanPalette) {
				return scanPalette[b]
			}
			return float64(b%32) / 7
		}
		hi := 1 + next()%80
		lo := next() % hi
		seed := lo + next()%(hi-lo)
		costs, prev := make([]float64, hi+1), make([]float64, hi+1)
		for s := range costs {
			costs[s] = value()
		}
		for i := range prev {
			prev[i] = value()
		}
		if monoOK {
			slices.Sort(prev)
		}
		checkScan(t, prev, costs, lo, hi, seed, isSum, monoOK)
	})
}

// TestPrunedDPStatsAtBenchShapes holds the benchmark's six histogram
// builds (bench/builds.go's hist-scan and hist-oracle rounds, on inputs
// seeded here) to the dense reference's tables and their work counters to
// the unit: a change to the scan that moves a count must update the
// numbers here.
func TestPrunedDPStatsAtBenchShapes(t *testing.T) {
	rng := func(n int) *rand.Rand { return rand.New(rand.NewSource(int64(n))) }
	sensor := func(n int) pdata.Source { return gen.SensorGrid(rng(n), gen.DefaultSensor(n)) }
	mystiq := func(n int) pdata.Source { return gen.MystiQLinkage(rng(n), gen.DefaultMystiQ(n)) }
	tpch := gen.TPCHLineitem(rng(512), gen.DefaultTPCH(512, 4*512))
	for _, c := range []struct {
		name  string
		src   pdata.Source
		kind  metric.Kind
		B     int
		stats DPStats
	}{
		{"SSE", sensor(512), metric.SSE, 64, DPStats{CandidatesScanned: 1367775, CandidatesPruned: 5915361, CostEvals: 131328}},
		{"SSRE", mystiq(512), metric.SSRE, 64, DPStats{CandidatesScanned: 1479964, CandidatesPruned: 5803172, CostEvals: 131328}},
		{"SSE-tuple", tpch, metric.SSE, 64, DPStats{CandidatesScanned: 877863, CandidatesPruned: 6405273, CostEvals: 131328}},
		{"SAE", sensor(448), metric.SAE, 64, DPStats{CandidatesScanned: 1086700, CandidatesPruned: 4388084, CostEvals: 100576}},
		{"SARE", mystiq(448), metric.SARE, 64, DPStats{CandidatesScanned: 1316505, CandidatesPruned: 4158279, CostEvals: 100576}},
		{"MAE", sensor(64), metric.MAE, 16, DPStats{CandidatesScanned: 6931, CandidatesPruned: 17149, CostEvals: 2080}},
	} {
		t.Run(c.name, func(t *testing.T) {
			o, err := NewOracle(c.src, c.kind, metric.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			tab, err := RunDPPool(o, c.B, finePool(2))
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, denseTable(o, c.B), tab)
			if got := tab.Stats(); got != c.stats {
				t.Fatalf("counted %+v, want %+v", got, c.stats)
			}
		})
	}
}

// TestPrunedDPLazyEvalsBounded: the fill prices each bucket exactly once —
// n(n+1)/2 evaluations for every oracle kind, sweep or random-access,
// never once per level like a naive lazy scan would (a Θ(B) blowup) and
// with no seed re-pricing on top. On structured data the split scans
// themselves must be almost entirely pruned: that Θ(n²·B) term, not the
// fill, is the dense path's dominant cost.
func TestPrunedDPLazyEvalsBounded(t *testing.T) {
	const n, B = 512, 16
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i / 64) // 8 flat segments
	}
	for _, k := range []metric.Kind{metric.SSE, metric.SSRE, metric.SAE, metric.MAE} {
		o, err := NewOracle(pdata.Deterministic(data), k, metric.Params{C: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := RunDPPool(o, B, finePool(2))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pruned.Stats().CostEvals, int64(n*(n+1)/2); got != want {
			t.Fatalf("%v: %d cost evals, want one per bucket, %d", k, got, want)
		}
		if k != metric.SSE {
			continue
		}
		tablesIdentical(t, denseTable(o, B), pruned)
		st := pruned.Stats()
		frac := float64(st.CandidatesPruned) / float64(st.CandidatesScanned+st.CandidatesPruned)
		if frac < 0.9 {
			t.Fatalf("scan pruning fraction %.3f, want >= 0.90 on segmented data", frac)
		}
		t.Logf("cost evals %d; scans pruned %.1f%%", st.CostEvals, 100*frac)
	}
}

// TestOptimalErrorMatchesTableCost: the rolling two-row DP must agree
// with the full table to the bit, for every oracle family (including the
// SweepOracle fallback) and a budget clamped by the domain.
func TestOptimalErrorMatchesTableCost(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for srcName, src := range parallelSources(rng, 60) {
		for _, k := range []metric.Kind{metric.SSE, metric.SSEFixed, metric.SSRE,
			metric.SAE, metric.SARE, metric.MAE, metric.MARE} {
			o, err := NewOracle(src, k, metric.Params{C: 0.5})
			if err != nil {
				t.Fatalf("%s/%v: %v", srcName, k, err)
			}
			for _, B := range []int{1, 2, 7, 61} {
				tab, err := RunDPPool(o, B, nil)
				if err != nil {
					t.Fatalf("%s/%v B=%d: %v", srcName, k, B, err)
				}
				got, err := OptimalError(o, B)
				if err != nil {
					t.Fatalf("%s/%v B=%d: %v", srcName, k, B, err)
				}
				if math.Float64bits(got) != math.Float64bits(tab.Cost(B)) {
					t.Fatalf("%s/%v B=%d: OptimalError %v, table cost %v (not bit-identical)",
						srcName, k, B, got, tab.Cost(B))
				}
			}
		}
	}
}

// TestLiveDPPrunedMatchesDenseFresh extends the live coverage: a mutated
// pruned live table must be bit-identical to a fresh *dense* build over
// the final data — guarding the resume-from-column interaction (stale
// back-pointer seeds, clamped monotone certificates).
func TestLiveDPPrunedMatchesDenseFresh(t *testing.T) {
	for _, k := range []metric.Kind{metric.SSE, metric.SAE, metric.MARE} {
		rng := rand.New(rand.NewSource(17))
		vp := liveRandVP(rng, 23)
		p := metric.Params{C: 0.5}
		mk := func(v *pdata.ValuePDF) (Oracle, error) { return NewOracle(v, k, p) }
		pool := engine.New(engine.Options{Workers: 3, Grain: 1})
		const B = 6
		live, err := RunDPPool(mustOracle(t, mk, vp), B, pool)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		for step := 0; step < 8; step++ {
			tablesIdentical(t, denseTable(liveMutate(t, rng, live, pool, vp, mk), B), live)
		}
	}
}
