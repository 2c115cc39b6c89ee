package wavelet_test

// The tree DP takes its level tables, incoming-value rows and orders and
// its leaf-sweep scratch from a process-wide slab cache. The root
// package's TestPoisonedSlabReuse holds its output to fresh zeroed slabs;
// this pins what a warm build allocates.

import (
	"math/rand"
	"runtime"
	"testing"

	"probsyn/internal/gen"
	"probsyn/internal/metric"
	"probsyn/internal/wavelet"
)

// TestTreeDPAllocations pins what a warm single-budget build allocates: its
// level tables come from the slab cache the previous build released, so
// what is left is the point-error tables, the candidates and the layout.
// The race detector makes sync.Pool drop Puts at random, so it is skipped
// there.
func TestTreeDPAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	// One P: a sync.Pool keeps one item per P where no other P can take
	// it, so a build that migrated between Ps would allocate a slab its
	// predecessor released. The bound is on the DP, not the scheduler.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := metric.Params{C: 0.5}
	for _, tc := range []struct {
		name     string
		kind     metric.Kind
		n, B, q  int
		maxBytes float64 // per build
	}{
		{"restricted-SAE", metric.SAE, 512, 32, 0, 0.5e6},
		{"restricted-MAE", metric.MAE, 512, 32, 0, 0.5e6},
		{"q32-SAE", metric.SAE, 2048, 32, 32, 1e6},
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
		build() // warm: fill the cache
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
