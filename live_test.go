package probsyn_test

// Live-maintenance property tests: after ANY random sequence of appends
// and in-place updates, a BuildLive frontier must be codec-byte-identical
// at every budget to a fresh BuildSweep over the final data — at worker
// counts {1, 2, NumCPU}, under -race in CI. This is the PR's core
// contract: retained DP state plus incremental repair never drifts from
// a from-scratch build.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"probsyn"
	"probsyn/internal/engine"
)

func liveRandItem(rng *rand.Rand) probsyn.ItemPDF {
	k := 1 + rng.Intn(3)
	entries := make([]probsyn.FreqProb, 0, k)
	remaining := 1.0
	for j := 0; j < k; j++ {
		p := float64(1+rng.Intn(4)) * 0.125
		if p > remaining {
			break
		}
		remaining -= p
		entries = append(entries, probsyn.FreqProb{Freq: float64(rng.Intn(6)), Prob: p})
	}
	return probsyn.ItemPDF{Entries: entries}
}

func liveRandVP(rng *rand.Rand, n int) *probsyn.ValuePDF {
	vp := &probsyn.ValuePDF{N: n, Items: make([]probsyn.ItemPDF, n)}
	for i := range vp.Items {
		vp.Items[i] = liveRandItem(rng)
	}
	return vp
}

// liveFamilies enumerates the configurations live maintenance must agree
// with BuildSweep on: both families, all three wavelet paths.
func liveFamilies() []struct {
	name string
	m    probsyn.Metric
	opts []probsyn.BuildOption
} {
	return []struct {
		name string
		m    probsyn.Metric
		opts []probsyn.BuildOption
	}{
		{"histogram-sse", probsyn.SSE, nil},
		{"histogram-sae", probsyn.SAE, nil},
		{"wavelet-sse", probsyn.SSE, []probsyn.BuildOption{probsyn.WithWavelet()}},
		{"wavelet-restricted", probsyn.SAE, []probsyn.BuildOption{probsyn.WithWavelet()}},
		{"wavelet-unrestricted", probsyn.SAE, []probsyn.BuildOption{probsyn.WithWavelet(), probsyn.WithUnrestricted(1)}},
	}
}

// mutate applies one random mutation to both the live frontier and the
// plain model copy; mean-preserving corrections are in the mix so the
// wavelet dirty-path repair is exercised alongside the resweep path.
func mutate(t *testing.T, rng *rand.Rand, live probsyn.Maintainer, cur *probsyn.ValuePDF) {
	t.Helper()
	switch rng.Intn(4) {
	case 0: // append a batch (eventually outgrows the wavelet padding)
		k := 1 + rng.Intn(3)
		items := make([]probsyn.ItemPDF, k)
		for j := range items {
			items[j] = liveRandItem(rng)
			cur.Items = append(cur.Items, probsyn.ItemPDF{Entries: append([]probsyn.FreqProb(nil), items[j].Entries...)})
		}
		cur.N = len(cur.Items)
		if err := live.Append(items); err != nil {
			t.Fatalf("append: %v", err)
		}
	case 1: // mean-preserving correction
		i := rng.Intn(cur.N)
		it := probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: 1, Prob: 0.25}, {Freq: 3, Prob: 0.25}}}
		cur.Items[i] = probsyn.ItemPDF{Entries: append([]probsyn.FreqProb(nil), it.Entries...)}
		if err := live.Update(i, it); err != nil {
			t.Fatalf("update: %v", err)
		}
	default: // arbitrary in-place update
		i := rng.Intn(cur.N)
		it := liveRandItem(rng)
		cur.Items[i] = probsyn.ItemPDF{Entries: append([]probsyn.FreqProb(nil), it.Entries...)}
		if err := live.Update(i, it); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
}

func assertLiveMatchesSweep(t *testing.T, live probsyn.Maintainer, cur *probsyn.ValuePDF, m probsyn.Metric, B int, opts []probsyn.BuildOption, tag string) {
	t.Helper()
	fresh, err := probsyn.BuildSweep(cur, m, B, opts...)
	if err != nil {
		t.Fatalf("%s: fresh sweep: %v", tag, err)
	}
	if live.Bmax() != fresh.Bmax() {
		t.Fatalf("%s: live Bmax %d, fresh %d", tag, live.Bmax(), fresh.Bmax())
	}
	if live.Domain() != cur.N {
		t.Fatalf("%s: live domain %d, data %d", tag, live.Domain(), cur.N)
	}
	for b := 1; b <= live.Bmax(); b++ {
		ls, err := live.Synopsis(b)
		if err != nil {
			t.Fatalf("%s: live budget %d: %v", tag, b, err)
		}
		fs, err := fresh.Synopsis(b)
		if err != nil {
			t.Fatalf("%s: fresh budget %d: %v", tag, b, err)
		}
		lb, err := probsyn.MarshalSynopsis(ls)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := probsyn.MarshalSynopsis(fs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lb, fb) {
			t.Fatalf("%s: budget %d: live synopsis bytes differ from fresh BuildSweep", tag, b)
		}
	}
}

// TestLiveByteIdenticalToFreshSweep is the PR's acceptance property: any
// mutation sequence, every budget, byte-identical through the codec, at
// several worker counts.
func TestLiveByteIdenticalToFreshSweep(t *testing.T) {
	const B = 6
	for _, fam := range liveFamilies() {
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("%s/workers=%d", fam.name, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(41 + workers)))
				vp := liveRandVP(rng, 13)
				opts := append(append([]probsyn.BuildOption(nil), fam.opts...), probsyn.WithParallelism(workers))
				live, err := probsyn.BuildLive(vp, fam.m, B, opts...)
				if err != nil {
					t.Fatal(err)
				}
				cur := vp.Clone()
				assertLiveMatchesSweep(t, live, cur, fam.m, B, opts, "initial")
				for step := 0; step < 6; step++ {
					mutate(t, rng, live, cur)
					assertLiveMatchesSweep(t, live, cur, fam.m, B, opts, fmt.Sprintf("step %d", step))
				}
			})
		}
	}
}

// TestBuildLiveValidation covers the construction guard rails.
func TestBuildLiveValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vp := liveRandVP(rng, 8)
	if _, err := probsyn.BuildLive(vp, probsyn.SSE, 0); err == nil {
		t.Fatal("budget 0 accepted")
	}
	if _, err := probsyn.BuildLive(vp, probsyn.SSE, 4, probsyn.WithEps(0.5)); err == nil {
		t.Fatal("eps-approximate live accepted")
	}
	if _, err := probsyn.BuildLive(vp, probsyn.SSE, 4, probsyn.WithUnrestricted(1)); err == nil {
		t.Fatal("unrestricted histogram accepted")
	}
	basic := &probsyn.Basic{N: 4, Tuples: []probsyn.BasicTuple{{Item: 1, Prob: 0.5}}}
	if _, err := probsyn.BuildLive(basic, probsyn.SSE, 2); err == nil {
		t.Fatal("non-value-pdf source accepted")
	}
	// Workload weights: builds and updates work, appends are rejected.
	weights := make([]float64, vp.N)
	for i := range weights {
		weights[i] = float64(1 + i%2)
	}
	live, err := probsyn.BuildLive(vp, probsyn.SSEFixed, 3, probsyn.WithWorkloadWeights(weights))
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Update(2, liveRandItem(rng)); err != nil {
		t.Fatalf("weighted update: %v", err)
	}
	if err := live.Append([]probsyn.ItemPDF{liveRandItem(rng)}); err == nil {
		t.Fatal("weighted append accepted")
	}
	syn, err := live.Synopsis(3)
	if err != nil {
		t.Fatal(err)
	}
	if syn.Terms() != 3 {
		t.Fatalf("weighted live synopsis has %d terms, want 3", syn.Terms())
	}
}

// TestLiveDPStatsFollowMutations pins that WithDPStats keeps reporting
// across mutations: the sink holds the table's cumulative counters, so
// every mutation that re-runs columns must grow them. (The comparison of
// a mutated pruned table with a dense fresh build is
// internal/hist's TestLivePrunedBytesMatchDenseFresh.)
func TestLiveDPStatsFollowMutations(t *testing.T) {
	for _, m := range []probsyn.Metric{probsyn.SSE, probsyn.MARE} {
		rng := rand.New(rand.NewSource(99))
		vp := liveRandVP(rng, 17)
		var st probsyn.DPStats
		live, err := probsyn.BuildLive(vp, m, 5, probsyn.WithParallelism(2), probsyn.WithDPStats(&st))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		built := st
		if built.CandidatesScanned+built.CandidatesPruned == 0 {
			t.Fatalf("%v: WithDPStats sink not filled by the live build", m)
		}
		for step := 0; step < 6; step++ {
			mutate(t, rng, live, vp)
		}
		if st.CostEvals <= built.CostEvals {
			t.Fatalf("%v: WithDPStats sink not refreshed by live mutations (%d cost evals before, %d after)", m, built.CostEvals, st.CostEvals)
		}
	}
}

// TestWaveletDPStats: a coefficient-tree wavelet build fills the
// WithDPStats sink, with the same three counts at every worker count and
// through Build, BuildSweep, BuildLive and a sharded build's shards; a
// live mutation refreshes it; the SSE greedy, which runs no DP, zeroes it.
func TestWaveletDPStats(t *testing.T) {
	vp := liveRandVP(rand.New(rand.NewSource(7)), 64)
	for _, extra := range [][]probsyn.BuildOption{nil, {probsyn.WithQuantize(4)}, {probsyn.WithUnrestricted(1)}} {
		for _, m := range []probsyn.Metric{probsyn.SAE, probsyn.MAE} {
			var want probsyn.DPStats
			for _, workers := range []int{1, 2, 4} {
				for entry, build := range []func(opts ...probsyn.BuildOption) error{
					func(opts ...probsyn.BuildOption) error { _, err := probsyn.Build(vp, m, 9, opts...); return err },
					func(opts ...probsyn.BuildOption) error { _, err := probsyn.BuildSweep(vp, m, 9, opts...); return err },
					func(opts ...probsyn.BuildOption) error { _, err := probsyn.BuildLive(vp, m, 9, opts...); return err },
				} {
					var st probsyn.DPStats
					opts := append([]probsyn.BuildOption{probsyn.WithWavelet(), probsyn.WithPool(engine.New(engine.Options{Workers: workers, Grain: 1})), probsyn.WithDPStats(&st)}, extra...)
					if err := build(opts...); err != nil {
						t.Fatal(err)
					}
					if st.CandidatesScanned <= 0 || st.CandidatesPruned <= 0 || st.CostEvals <= 0 {
						t.Fatalf("%v entry %d workers %d: sink reads %+v", m, entry, workers, st)
					}
					if want == (probsyn.DPStats{}) {
						want = st
					}
					if st != want {
						t.Fatalf("%v entry %d workers %d: counted %+v, the serial Build %+v", m, entry, workers, st, want)
					}
				}
			}
		}
	}

	var st probsyn.DPStats
	live, err := probsyn.BuildLive(vp, probsyn.SAE, 9, probsyn.WithWavelet(), probsyn.WithDPStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	built := st
	// A mean-preserving update (one entry's mass split around its
	// frequency) is repaired along its path: the counters grow by the
	// repair's work.
	i := 0
	for len(vp.Items[i].Entries) == 0 || vp.Items[i].Entries[0].Freq < 1 {
		i++
	}
	e := vp.Items[i].Entries[0]
	split := append([]probsyn.FreqProb{{Freq: e.Freq - 1, Prob: e.Prob / 2}, {Freq: e.Freq + 1, Prob: e.Prob / 2}}, vp.Items[i].Entries[1:]...)
	if err := live.Update(i, probsyn.ItemPDF{Entries: split}); err != nil {
		t.Fatal(err)
	}
	if st.CostEvals <= built.CostEvals || st.CandidatesScanned <= built.CandidatesScanned {
		t.Fatalf("live repair left the sink at %+v (built: %+v)", st, built)
	}
	// A mean-changing update resweeps. The counters stay cumulative, as a
	// live histogram's are: they grow by one whole forward sweep over the
	// mutated data (a sum metric's merge stops on data-dependent bounds).
	moved := probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: e.Freq + 3, Prob: 1}}}
	mutated := vp.Clone()
	mutated.Items[i] = moved
	var sweep probsyn.DPStats
	if _, err := probsyn.Build(mutated, probsyn.SAE, 9, probsyn.WithWavelet(), probsyn.WithDPStats(&sweep)); err != nil {
		t.Fatal(err)
	}
	want := st
	want.Add(sweep)
	if err := live.Update(i, moved); err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("live resweep left the sink at %+v, want the repaired counts plus a sweep's, %+v", st, want)
	}
	if _, err := probsyn.BuildSharded(vp, probsyn.SAE, 9, 2, probsyn.WithWavelet(), probsyn.WithDPStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.CandidatesScanned <= 0 || st.CostEvals <= 0 {
		t.Fatalf("sharded wavelet build: sink reads %+v", st)
	}
	if _, err := probsyn.Build(vp, probsyn.SSE, 9, probsyn.WithWavelet(), probsyn.WithDPStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st != (probsyn.DPStats{}) {
		t.Fatalf("SSE greedy build: sink reads %+v, want zero", st)
	}
}
