package probsyn_test

// Live-maintenance property tests: after ANY random sequence of appends
// and in-place updates, a BuildLive frontier must be codec-byte-identical
// at every budget to a fresh BuildSweep over the final data — at worker
// counts {1, 2, NumCPU}, under -race in CI. A histogram's resumed table
// must never drift from a from-scratch build, and a rejected mutation
// must change nothing.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"probsyn"
	"probsyn/internal/engine"
	"probsyn/internal/gen"
	"probsyn/internal/ptest"
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
// with BuildSweep on: both families, every wavelet path, the smallest
// starting domains, which the first append grows across the power-of-two
// padding (1 item to 2 or more, 2 to 3 or more), and 16 items, which the
// first append pads to 32 with whole zero subtrees in the tree.
func liveFamilies() []struct {
	name string
	m    probsyn.Metric
	opts []probsyn.BuildOption
	n    int // starting domain
} {
	return []struct {
		name string
		m    probsyn.Metric
		opts []probsyn.BuildOption
		n    int
	}{
		{"histogram-sse", probsyn.SSE, nil, 13},
		{"histogram-sae", probsyn.SAE, nil, 13},
		{"wavelet-sse", probsyn.SSE, []probsyn.BuildOption{probsyn.WithWavelet()}, 13},
		{"wavelet-restricted", probsyn.SAE, []probsyn.BuildOption{probsyn.WithWavelet()}, 13},
		{"wavelet-quantized", probsyn.SAE, []probsyn.BuildOption{probsyn.WithWavelet(), probsyn.WithQuantize(4)}, 13},
		{"wavelet-restricted-n1", probsyn.SAE, []probsyn.BuildOption{probsyn.WithWavelet()}, 1},
		{"wavelet-restricted-n2", probsyn.SAE, []probsyn.BuildOption{probsyn.WithWavelet()}, 2},
		{"wavelet-restricted-n16", probsyn.SAE, []probsyn.BuildOption{probsyn.WithWavelet()}, 16},
		{"wavelet-quantized-n16", probsyn.SAE, []probsyn.BuildOption{probsyn.WithWavelet(), probsyn.WithQuantize(4)}, 16},
	}
}

// mutate applies mutation op to both the live frontier and the plain
// model copy: 0 appends a batch of one to three items, 1 is a
// mean-preserving correction, anything else an arbitrary in-place update.
func mutate(t *testing.T, rng *rand.Rand, op int, live probsyn.Maintainer, cur *probsyn.ValuePDF) {
	t.Helper()
	switch op {
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
	if lb, fb := probsyn.ApproxBound(live), probsyn.ApproxBound(fresh); lb != fb {
		t.Fatalf("%s: live error bound %v, fresh %v", tag, lb, fb)
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

// TestLiveByteIdenticalToFreshSweep is the Maintainer contract: any
// mutation sequence, every budget, byte-identical through the codec, at
// several worker counts.
func TestLiveByteIdenticalToFreshSweep(t *testing.T) {
	const B = 6
	for _, fam := range liveFamilies() {
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("%s/workers=%d", fam.name, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(41 + workers)))
				vp := liveRandVP(rng, fam.n)
				opts := append(append([]probsyn.BuildOption(nil), fam.opts...), probsyn.WithParallelism(workers))
				live, err := probsyn.BuildLive(vp, fam.m, B, opts...)
				if err != nil {
					t.Fatal(err)
				}
				cur := vp.Clone()
				assertLiveMatchesSweep(t, live, cur, fam.m, B, opts, "initial")
				for step := 0; step < 6; step++ {
					op := rng.Intn(4)
					if step == 0 {
						op = 0 // the small starting domains cross the padding here
					}
					mutate(t, rng, op, live, cur)
					assertLiveMatchesSweep(t, live, cur, fam.m, B, opts, fmt.Sprintf("step %d", step))
				}
			})
		}
	}
}

// TestLiveGridMutations: live SAE and SARE histograms follow mutations
// that move the value grid — values added below, between and above it,
// the last entry listing a value replaced, a negative zero coming and
// going (ptest.GridMutations) — byte-identical to a fresh BuildSweep at
// every budget after each one, at several worker counts. liveRandItem
// lists frequencies 0..5 only, so its grid saturates within a few items.
func TestLiveGridMutations(t *testing.T) {
	const B = 8
	for _, m := range []probsyn.Metric{probsyn.SAE, probsyn.SARE} {
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("%v/workers=%d", m, workers), func(t *testing.T) {
				vp, muts := ptest.GridMutations(rand.New(rand.NewSource(5)), 20)
				opts := []probsyn.BuildOption{probsyn.WithParallelism(workers)}
				live, err := probsyn.BuildLive(vp, m, B, opts...)
				if err != nil {
					t.Fatal(err)
				}
				cur := vp.Clone()
				for step, mu := range muts {
					if mu.At < 0 {
						err = live.Append(mu.Items)
					} else {
						err = live.Update(mu.At, mu.Items[0])
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					mu.Apply(cur)
					assertLiveMatchesSweep(t, live, cur, m, B, opts, fmt.Sprintf("step %d (at %d)", step, mu.At))
				}
			})
		}
	}
}

// TestLiveHistogramAllocations pins what a served mutation allocates on
// a live SAE B=32 histogram over sensor data, n=512: the oracle and the
// DP table resume in place, so a 4-item Append and a midpoint Update
// each allocate well under a rebuilt oracle's megabyte, amortised over
// rounds after a warm one.
func TestLiveHistogramAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, rounds, maxBytes = 512, 8, 128 << 10
	data := gen.SensorGrid(rand.New(rand.NewSource(1)), gen.DefaultSensor(n))
	pdfs := gen.SensorGrid(rand.New(rand.NewSource(2)), gen.DefaultSensor(5*(rounds+1))).Items
	live, err := probsyn.BuildLive(data, probsyn.SAE, 32)
	if err != nil {
		t.Fatal(err)
	}
	var appendBytes, updateBytes uint64
	for r := 0; r <= rounds; r++ {
		take := pdfs[5*r : 5*(r+1)]
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := live.Append(take[:4]); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if err := live.Update(n/2, take[4]); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m2)
		if r > 0 { // round 0 is the warm one
			appendBytes += m1.TotalAlloc - m0.TotalAlloc
			updateBytes += m2.TotalAlloc - m1.TotalAlloc
		}
	}
	for _, c := range []struct {
		name  string
		bytes uint64
	}{{"4-item Append", appendBytes}, {"midpoint Update", updateBytes}} {
		per := c.bytes / rounds
		t.Logf("%s: %d bytes a mutation", c.name, per)
		if per > maxBytes {
			t.Errorf("%s allocates %d bytes a mutation, want <= %d", c.name, per, maxBytes)
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
	basic := &probsyn.Basic{N: 4, Tuples: []probsyn.BasicTuple{{Item: 1, Prob: 0.5}}}
	if _, err := probsyn.BuildLive(basic, probsyn.SSE, 2); err == nil {
		t.Fatal("non-value-pdf source accepted")
	}
}

// liveSnapshot is what a caller can observe of a live frontier: its
// domain, its Bmax and every budget's codec bytes.
func liveSnapshot(t *testing.T, live probsyn.Maintainer) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "domain %d, bmax %d\n", live.Domain(), live.Bmax())
	for b := 1; b <= live.Bmax(); b++ {
		syn, err := live.Synopsis(b)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := probsyn.MarshalSynopsis(syn)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(blob)
	}
	return buf.Bytes()
}

// TestLiveDPValidation covers the mutation guard rails: every rejected
// mutation — out-of-domain and invalid updates, an append batch with an
// invalid pdf in the middle, a workload-weighted histogram's append —
// must leave the domain, Bmax and every budget's bytes as they were, for
// both families.
func TestLiveDPValidation(t *testing.T) {
	bad := probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: 1, Prob: 1.5}}}
	rejectAll := func(t *testing.T, live probsyn.Maintainer, calls map[string]func() error) {
		t.Helper()
		before := liveSnapshot(t, live)
		for name, call := range calls {
			if err := call(); err == nil {
				t.Fatalf("%s accepted", name)
			}
			if !bytes.Equal(liveSnapshot(t, live), before) {
				t.Fatalf("rejected %s changed the frontier", name)
			}
		}
	}
	for _, fam := range liveFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			live, err := probsyn.BuildLive(liveRandVP(rng, fam.n), fam.m, 4, fam.opts...)
			if err != nil {
				t.Fatal(err)
			}
			good := liveRandItem(rng)
			rejectAll(t, live, map[string]func() error{
				"update at -1":           func() error { return live.Update(-1, good) },
				"update at Domain()":     func() error { return live.Update(live.Domain(), good) },
				"invalid pdf by Update":  func() error { return live.Update(0, bad) },
				"invalid pdf mid-Append": func() error { return live.Append([]probsyn.ItemPDF{good, bad, good}) },
			})
			before := liveSnapshot(t, live)
			if err := live.Append(nil); err != nil {
				t.Fatalf("empty append: %v", err)
			}
			if !bytes.Equal(liveSnapshot(t, live), before) {
				t.Fatal("empty append changed the frontier")
			}
		})
	}
	// A workload-weighted histogram has no weights for new items
	// (TestLiveWeightedHistogram covers its updates).
	t.Run("histogram-weighted", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		vp := liveRandVP(rng, 8)
		weights := make([]float64, vp.N)
		for i := range weights {
			weights[i] = float64(1 + i%2)
		}
		live, err := probsyn.BuildLive(vp, probsyn.SSEFixed, 3, probsyn.WithWorkloadWeights(weights))
		if err != nil {
			t.Fatal(err)
		}
		rejectAll(t, live, map[string]func() error{
			"weighted append": func() error { return live.Append([]probsyn.ItemPDF{liveRandItem(rng)}) },
		})
	})
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
			mutate(t, rng, rng.Intn(4), live, vp)
		}
		if st.CostEvals <= built.CostEvals {
			t.Fatalf("%v: WithDPStats sink not refreshed by live mutations (%d cost evals before, %d after)", m, built.CostEvals, st.CostEvals)
		}
	}
}

// TestWaveletDPStats: a coefficient-tree wavelet build fills the
// WithDPStats sink, with the same three counts at every worker count and
// through Build, BuildSweep and BuildLive; a live mutation refreshes it;
// the SSE greedy, which runs no DP, zeroes it.
func TestWaveletDPStats(t *testing.T) {
	vp := liveRandVP(rand.New(rand.NewSource(7)), 64)
	for _, extra := range [][]probsyn.BuildOption{nil, {probsyn.WithQuantize(4)}} {
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

	// Every live mutation adds exactly one fresh Build's counters over the
	// mutated data, a mean-preserving correction (one entry's mass split
	// around its frequency) as much as a mean-changing update or an append:
	// a wavelet frontier sweeps afresh whatever the mutation. The counters
	// stay cumulative, as a live histogram's are.
	var st probsyn.DPStats
	live, err := probsyn.BuildLive(vp, probsyn.SAE, 9, probsyn.WithWavelet(), probsyn.WithDPStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for len(vp.Items[i].Entries) == 0 || vp.Items[i].Entries[0].Freq < 1 {
		i++
	}
	e := vp.Items[i].Entries[0]
	split := probsyn.ItemPDF{Entries: append([]probsyn.FreqProb{{Freq: e.Freq - 1, Prob: e.Prob / 2}, {Freq: e.Freq + 1, Prob: e.Prob / 2}}, vp.Items[i].Entries[1:]...)}
	moved := probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: e.Freq + 3, Prob: 1}}}
	cur := vp.Clone()
	for _, mu := range []struct {
		name string
		at   int // the item updated; -1 appends
		item probsyn.ItemPDF
	}{{"mean-preserving update", i, split}, {"mean-changing update", i, moved}, {"append", -1, moved}} {
		if mu.at < 0 {
			cur.Items = append(cur.Items, mu.item)
			cur.N++
		} else {
			cur.Items[mu.at] = mu.item
		}
		var sweep probsyn.DPStats
		if _, err := probsyn.Build(cur, probsyn.SAE, 9, probsyn.WithWavelet(), probsyn.WithDPStats(&sweep)); err != nil {
			t.Fatal(err)
		}
		want := st
		want.Add(sweep)
		if mu.at < 0 {
			err = live.Append([]probsyn.ItemPDF{mu.item})
		} else {
			err = live.Update(mu.at, mu.item)
		}
		if err != nil {
			t.Fatal(err)
		}
		if st != want {
			t.Fatalf("%s left the sink at %+v, want the counts before it plus one Build's, %+v", mu.name, st, want)
		}
	}
	if _, err := probsyn.Build(vp, probsyn.SSE, 9, probsyn.WithWavelet(), probsyn.WithDPStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st != (probsyn.DPStats{}) {
		t.Fatalf("SSE greedy build: sink reads %+v, want zero", st)
	}
}
