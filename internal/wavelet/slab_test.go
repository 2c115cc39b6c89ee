package wavelet_test

// A Buffers set owns everything a sweep writes: NewSweep takes one from a
// process-wide pool of sets, and a live frontier keeps its own. The root
// package's TestPoisonedSlabReuse holds the output of refilled sets to
// fresh zeroed ones; this pins what a warm build allocates, and that a
// sweep refused at its entry cap writes nothing into the set.

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"probsyn/internal/gen"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/wavelet"
)

// TestTreeDPAllocations pins what a warm single-budget build allocates: it
// refills the set the previous build released, so what is left is the
// sweep, its closures and the synopsis. The race detector makes sync.Pool
// drop Puts at random, so it is skipped there.
func TestTreeDPAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	// One P: a sync.Pool keeps one item per P where no other P can take
	// it, so a build that migrated between Ps would allocate a set its
	// predecessor released. The bound is on the DP, not the scheduler.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := metric.Params{C: 0.5}
	for _, tc := range []struct {
		name     string
		kind     metric.Kind
		n, B, q  int
		maxBytes float64 // per build
	}{
		{"restricted-SAE", metric.SAE, 512, 32, 0, 0.02e6},
		{"restricted-MAE", metric.MAE, 512, 32, 0, 0.02e6},
		{"q32-SAE", metric.SAE, 2048, 32, 32, 0.1e6},
	} {
		src := gen.SensorGrid(rand.New(rand.NewSource(1)), gen.DefaultSensor(tc.n))
		build := func() {
			var err error
			if tc.q == 0 {
				_, _, err = wavelet.BuildRestrictedPool(src, tc.kind, p, tc.B, nil)
			} else {
				_, _, err = wavelet.BuildRestrictedApproxPool(src, tc.kind, p, tc.B, tc.q, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		build() // warm: pool a set of this shape
		const builds = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < builds; k++ {
			build()
		}
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / builds
		t.Logf("%s n=%d B=%d: %.3f MB a warm build", tc.name, tc.n, tc.B, per/1e6)
		if per > tc.maxBytes {
			t.Errorf("%s n=%d B=%d: a warm build allocates %.3f MB, want <= %.2f MB", tc.name, tc.n, tc.B, per/1e6, tc.maxBytes/1e6)
		}
	}
}

// TestRefusedSweepKeepsSet sweeps a small source into a set, then asks the
// same set for an exact sweep of a domain past the tree DP's entry cap
// (2^15+1 items pad to 2^16). The refusal must come before anything is
// written: every budget of the first sweep still extracts its synopsis,
// coefficients, values and cost, as before.
func TestRefusedSweepKeepsSet(t *testing.T) {
	p := metric.Params{C: 0.5}
	for _, q := range []int{0, 8} {
		set := new(wavelet.Buffers)
		small := gen.SensorGrid(rand.New(rand.NewSource(3)), gen.DefaultSensor(60))
		sw, err := set.Sweep(small, wavelet.RestrictedFamily, metric.SAE, p, 16, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		extract := func() []*wavelet.Synopsis {
			syns := make([]*wavelet.Synopsis, sw.Bmax())
			for b := range syns {
				if syns[b], err = sw.Synopsis(b + 1); err != nil {
					t.Fatal(err)
				}
			}
			return syns
		}
		before := extract()
		item := pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 3, Prob: 0.5}}}
		big := &pdata.ValuePDF{N: 1<<15 + 1, Items: make([]pdata.ItemPDF, 1<<15+1)}
		for i := range big.Items {
			big.Items[i] = item
		}
		if _, err := set.Sweep(big, wavelet.RestrictedFamily, metric.SAE, p, 16, 0, nil); err == nil {
			t.Fatal("an exact sweep of 2^15+1 items fit the entry cap")
		}
		if after := extract(); !reflect.DeepEqual(after, before) {
			t.Fatalf("q=%d: a refused sweep changed the synopses of the set's last sweep", q)
		}
	}
}
