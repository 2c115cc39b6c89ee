package wavelet

// BenchmarkPointErrorsErr times one PointErrors.Err call at own-support
// runs of m breakpoints, on either side of shortRun. The probes land in
// every gap of the run equally often, so a forward scan reads m/2
// breakpoints on average. The crossover DESIGN "Point errors" records
// was measured by rebuilding with shortRun = 0 (every run searched) and
// shortRun = 1<<30 (every run scanned) and reading these rows.

import (
	"fmt"
	"math/rand"
	"testing"

	"probsyn/internal/gen"
	"probsyn/internal/metric"
)

func BenchmarkPointErrorsErr(b *testing.B) {
	for _, m := range []int{4, 8, 16, 32, 64, 96, 128} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			// Sensor readings far from 0 on a wide scale: m−1 distinct
			// levels plus frequency 0 make m breakpoints an item.
			vp := gen.SensorGrid(rand.New(rand.NewSource(1)), gen.SensorConfig{N: 256, Levels: m - 1, MaxValue: 1e4, Noise: 0.25})
			pe, err := NewPointErrors(vp, metric.SAE, metric.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			is := make([]int, 4096)
			vs := make([]float64, len(is))
			for p := range is {
				i := rng.Intn(vp.N)
				run := pe.val[pe.off[i]:pe.off[i+1]]
				if len(run) != m {
					b.Fatalf("item %d has %d breakpoints, want %d", i, len(run), m)
				}
				k := rng.Intn(m) // between breakpoints k and k+1
				hi := run[m-1] + 1
				if k+1 < m {
					hi = run[k+1]
				}
				is[p], vs[p] = i, (run[k]+hi)/2
			}
			var sink float64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				p := n & (len(is) - 1) // len(is) is a power of two
				sink += pe.Err(is[p], vs[p])
			}
			if sink < 0 {
				b.Fatal("negative point error")
			}
		})
	}
}
