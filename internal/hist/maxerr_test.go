package hist

import (
	"math"
	"math/rand"
	"testing"

	"probsyn/internal/metric"
	"probsyn/internal/minimax"
	"probsyn/internal/pdata"
)

// TestCoversAcrossSkippedBuckets: refine may meet a step again several
// buckets after it last solved it, when the buckets between skipped that
// step, and reuses the old solve only if it still answers for every line
// added since. Each bucket's solve of each step is offered to every
// longer bucket with the same end; whenever covers accepts it, a solve
// from scratch must give its bits.
func TestCoversAcrossSkippedBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var accepted, acceptedGaps, refused int
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(10)
		vp := &pdata.ValuePDF{N: n, Items: make([]pdata.ItemPDF, n)}
		for i := range vp.Items {
			mass := 1.0
			for k := 1 + rng.Intn(3); k > 0; k-- {
				p := mass * rng.Float64()
				mass -= p
				vp.Items[i].Entries = append(vp.Items[i].Entries, pdata.FreqProb{Freq: float64(rng.Intn(8)), Prob: p})
			}
		}
		tab, err := pdata.NewPMFTable(vp, pdata.Support(vp))
		if err != nil {
			t.Fatal(err)
		}
		kind := []metric.Kind{metric.MAE, metric.MARE}[trial%2]
		o, err := NewMaxAbs(tab, kind, metric.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		vals, e := o.vs.Values, n-1
		var lines []minimax.Line
		solve := func(seg, s int, tr *minimax.Trace) (float64, float64) {
			lines = lines[:0]
			for i := s; i <= e; i++ {
				lines = append(lines, o.lineFor(i, seg))
			}
			return tr.Solve(lines, vals[seg], vals[seg+1])
		}
		for seg := 0; seg+1 < len(vals); seg++ {
			for s0 := e; s0 > 0; s0-- {
				sv := stepSolve{seg: seg, s: s0}
				solve(seg, s0, &sv.tr)
				cx, cy := sv.tr.Answer()
				for s := s0 - 1; s >= 0; s-- {
					if !o.covers(&sv, seg, s) {
						refused++
						continue
					}
					accepted++
					if s < s0-1 {
						acceptedGaps++
					}
					var fresh minimax.Trace
					if x, y := solve(seg, s, &fresh); math.Float64bits(x) != math.Float64bits(cx) || math.Float64bits(y) != math.Float64bits(cy) {
						t.Fatalf("%v %+v, step %d: the solve of items %d..%d covers items %d..%d with (%v, %v), a fresh solve gives (%v, %v)",
							kind, vp, seg, s0, e, s, e, cx, cy, x, y)
					}
				}
			}
		}
	}
	if acceptedGaps == 0 || refused == 0 {
		t.Fatalf("%d solves reused (%d across a gap), %d refused: the test exercises too little", accepted, acceptedGaps, refused)
	}
}
