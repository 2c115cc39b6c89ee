package hist

// Property tests for the monotonicity-pruned split reduction: the pruned
// DP must produce math.Float64bits-identical opt/choice tables to the
// dense reference (denseTable, dense_test.go) for every oracle family, both
// combine rules, and every worker count — and the DPStats accounting must
// balance exactly (every candidate is either scanned or pruned). Run
// under -race this also exercises the pruned chunked dispatch.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"probsyn/internal/engine"
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
// bit-identical to the dense reference.
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
	cases := []struct {
		name       string
		data       []float64
		minPrunedF float64 // lower bound on the pruned fraction, engaged case
	}{
		{"spike", spike, 0.5},
		{"equal", equal, 0.5},
		{"ramp", ramp, 0},
	}
	for _, tc := range cases {
		src := pdata.Deterministic(tc.data)
		for _, k := range []metric.Kind{metric.SSE, metric.SSRE, metric.MAE} {
			o, err := NewOracle(src, k, metric.Params{C: 0.5})
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, k, err)
			}
			dense := denseTable(o, B)
			for _, w := range []int{1, runtime.NumCPU()} {
				pruned, err := RunDPPool(o, B, finePool(w))
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", tc.name, k, w, err)
				}
				tablesIdentical(t, dense, pruned)
				checkStatsBalance(t, tc.name, pruned)
			}
			// Pin engagement on the serial schedule (chunk-local incumbents
			// make parallel stats schedule-dependent).
			serial, err := RunDPPool(o, B, nil)
			if err != nil {
				t.Fatal(err)
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
}

// TestPrunedDPLazyEvalsBounded: the bounded lazy fill prices each end's
// costs once, up to the furthest surviving candidate — never once per
// level like a naive lazy scan would (a Θ(B) blowup), and never past the
// dense Θ(n²/2) fill by more than the per-level seed re-pricings. On
// structured data the split scans themselves must be almost entirely
// pruned: that Θ(n²·B) term, not the fill, is the dense path's dominant
// cost.
func TestPrunedDPLazyEvalsBounded(t *testing.T) {
	const n, B = 512, 16
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i / 64) // 8 flat segments
	}
	o := NewSSEValue(pdata.Deterministic(data))
	dense := denseTable(o, B)
	pruned, err := RunDPPool(o, B, nil)
	if err != nil {
		t.Fatal(err)
	}
	tablesIdentical(t, dense, pruned)
	dEvals, pEvals := dense.Stats().CostEvals, pruned.Stats().CostEvals
	if slack := int64(B * n); pEvals > dEvals+slack {
		t.Fatalf("lazy path made %d cost evals, dense fill %d — fill is not bounded (max slack %d)", pEvals, dEvals, slack)
	}
	st := pruned.Stats()
	frac := float64(st.CandidatesPruned) / float64(st.CandidatesScanned+st.CandidatesPruned)
	if frac < 0.9 {
		t.Fatalf("scan pruning fraction %.3f, want >= 0.90 on segmented data", frac)
	}
	t.Logf("cost evals: dense %d, pruned %d; scans pruned %.1f%%", dEvals, pEvals, 100*frac)
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
		live, err := NewLiveDP(vp, mk, B, pool)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		cur := vp.Clone()
		for step := 0; step < 8; step++ {
			if rng.Intn(2) == 0 {
				items := []pdata.ItemPDF{liveRandItem(rng), liveRandItem(rng)}
				for _, it := range items {
					cur.Items = append(cur.Items, it.Clone())
				}
				cur.N = len(cur.Items)
				if err := live.Append(items); err != nil {
					t.Fatalf("%v step %d append: %v", k, step, err)
				}
			} else {
				i := rng.Intn(cur.N)
				it := liveRandItem(rng)
				cur.Items[i] = it.Clone()
				if err := live.Update(i, it); err != nil {
					t.Fatalf("%v step %d update: %v", k, step, err)
				}
			}
			o, err := mk(cur)
			if err != nil {
				t.Fatal(err)
			}
			dense := denseTable(o, B)
			tablesIdentical(t, dense, live.Table())
		}
	}
}
