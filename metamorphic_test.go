package probsyn_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"probsyn"
	"probsyn/internal/gen"
)

// scaled returns a copy of vp with every frequency multiplied by c.
func scaled(vp *probsyn.ValuePDF, c float64) *probsyn.ValuePDF {
	out := &probsyn.ValuePDF{N: vp.N, Items: make([]probsyn.ItemPDF, len(vp.Items))}
	for i, it := range vp.Items {
		entries := make([]probsyn.FreqProb, len(it.Entries))
		for j, e := range it.Entries {
			entries[j] = probsyn.FreqProb{Freq: c * e.Freq, Prob: e.Prob}
		}
		out.Items[i] = probsyn.ItemPDF{Entries: entries}
	}
	return out
}

// TestScalingCommutesWithBuild: doubling every value of a value pdf
// leaves the optimal boundaries where they were and multiplies the
// optimal error by 4 under the squared metrics and by 2 under the
// absolute ones, to the bit. Multiplying by a power of two is exact and
// commutes with every rounding in these homogeneous cost formulas (and in
// the absolute-error oracles' margins and searches), so any difference is
// a defect, not rounding. MAE runs a smaller domain: its build is O(|V|)
// per bucket.
func TestScalingCommutesWithBuild(t *testing.T) {
	start := time.Now()
	for _, tc := range []struct {
		metric probsyn.Metric
		n      int
		factor float64
	}{
		{probsyn.SSE, 4096, 4},
		{probsyn.SSEFixed, 4096, 4},
		{probsyn.SAE, 4096, 2},
		{probsyn.MAE, 256, 2},
	} {
		const B = 16
		src := gen.SensorGrid(rand.New(rand.NewSource(61)), gen.DefaultSensor(tc.n))
		syn, err := probsyn.Build(src, tc.metric, B)
		if err != nil {
			t.Fatalf("%v: %v", tc.metric, err)
		}
		big, err := probsyn.Build(scaled(src, 2), tc.metric, B)
		if err != nil {
			t.Fatalf("%v doubled: %v", tc.metric, err)
		}
		h, h2 := syn.(*probsyn.Histogram), big.(*probsyn.Histogram)
		if !slices.Equal(h.Boundaries(), h2.Boundaries()) {
			t.Errorf("%v n=%d: boundaries %v, doubled %v", tc.metric, tc.n, h.Boundaries(), h2.Boundaries())
		}
		if want := tc.factor * h.ErrorCost(); math.Float64bits(h2.ErrorCost()) != math.Float64bits(want) {
			t.Errorf("%v n=%d: doubled cost %v, want exactly %v x %v = %v", tc.metric, tc.n, h2.ErrorCost(), tc.factor, h.ErrorCost(), want)
		}
	}
	t.Logf("%.2f s", time.Since(start).Seconds())
}
