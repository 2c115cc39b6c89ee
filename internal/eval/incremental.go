package eval

import (
	"fmt"
	"runtime"
	"time"

	"probsyn/internal/engine"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/wavelet"
)

// IncrementalPoint is one measured incremental-vs-rebuild comparison:
// the average wall time of one live mutation (plus the revalidated
// frontier it leaves behind) against one from-scratch budget sweep over
// the same final data.
type IncrementalPoint struct {
	Family             string  `json:"family"` // "histogram", "wavelet-sse", "wavelet-restricted"
	Op                 string  `json:"op"`     // "append" or "update"
	Mutations          int     `json:"mutations"`
	IncrementalSeconds float64 `json:"incremental_seconds"` // average per mutation
	RebuildSeconds     float64 `json:"rebuild_seconds"`     // one fresh sweep over the final data
	Speedup            float64 `json:"speedup"`
}

// IncrementalExperiment measures what retained DP state buys: it drives
// each family's live frontier through a run of appends and in-place
// updates and prices them against from-scratch sweeps (the experiments
// CLI's `incremental` mode prints the series).
//
// The mutation mix mirrors the serving story the maintenance layer is
// built for, and each family is exercised where its incremental path
// applies: histogram updates land near the domain tail (cost is
// proportional to the columns right of the update — an update at item 0
// is a full re-DP), and the restricted-wavelet updates are
// mean-preserving corrections (the dirty-path fast path; mean-changing
// updates re-run the forward sweep and save little). The appended
// domains stay inside the wavelet padding until the batches outgrow it.
type IncrementalExperiment struct {
	Source *pdata.ValuePDF
	Metric metric.Kind // histogram + restricted wavelet metric (the SSE wavelet family ignores it)
	Params metric.Params
	B      int
	// Batch is the appended-items batch size per append mutation.
	Batch int
	// Mutations is how many timed mutations each point averages over.
	Mutations int
	// Pool, when non-nil, schedules every DP on this shared engine pool.
	Pool *engine.Pool
}

// Run executes the experiment: {histogram, wavelet-sse,
// wavelet-restricted} × {append, update}.
func (e *IncrementalExperiment) Run() ([]IncrementalPoint, error) {
	if e.B < 1 {
		return nil, fmt.Errorf("eval: incremental B %d, want >= 1", e.B)
	}
	batch := e.Batch
	if batch < 1 {
		batch = 1
	}
	muts := e.Mutations
	if muts < 1 {
		muts = 4
	}
	var out []IncrementalPoint
	for _, family := range []string{"histogram", "wavelet-sse", "wavelet-restricted"} {
		for _, op := range []string{"append", "update"} {
			pt, err := e.measure(family, op, batch, muts)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// appendBatch fabricates the items one append mutation adds.
func appendBatch(k, seed int) []pdata.ItemPDF {
	items := make([]pdata.ItemPDF, k)
	for j := range items {
		items[j] = pdata.ItemPDF{Entries: []pdata.FreqProb{
			{Freq: float64(1 + (seed+j)%4), Prob: 0.5},
			{Freq: float64((seed + j) % 3), Prob: 0.25},
		}}
	}
	return items
}

// meanOneA and meanOneB are exactly-mean-1 pdfs (0.5·2 == 0.25·1+0.25·3),
// so alternating between them is a mean-preserving correction.
var (
	meanOneA = pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 2, Prob: 0.5}}}
	meanOneB = pdata.ItemPDF{Entries: []pdata.FreqProb{{Freq: 1, Prob: 0.25}, {Freq: 3, Prob: 0.25}}}
)

func (e *IncrementalExperiment) measure(family, op string, batch, muts int) (IncrementalPoint, error) {
	pt := IncrementalPoint{Family: family, Op: op, Mutations: muts}
	data := e.Source.Clone()

	type liveFrontier interface {
		Append(items []pdata.ItemPDF) error
		Update(i int, item pdata.ItemPDF) error
	}
	var (
		live    liveFrontier
		rebuild func(vp *pdata.ValuePDF) error
		err     error
	)
	switch family {
	case "histogram":
		mk := func(v *pdata.ValuePDF) (hist.Oracle, error) { return hist.NewOracle(v, e.Metric, e.Params) }
		live, err = hist.NewLiveDP(data, mk, e.B, e.Pool)
		rebuild = func(vp *pdata.ValuePDF) error {
			o, err := mk(vp)
			if err != nil {
				return err
			}
			_, err = hist.RunDPPool(o, e.B, e.Pool)
			return err
		}
	case "wavelet-sse":
		live, err = wavelet.NewLive(data, wavelet.SSEFamily, metric.SSE, e.Params, e.B, 0, e.Pool)
		rebuild = func(vp *pdata.ValuePDF) error {
			_, err := wavelet.NewSweep(vp, wavelet.SSEFamily, metric.SSE, e.Params, e.B, 0, e.Pool)
			return err
		}
	default:
		live, err = wavelet.NewLive(data, wavelet.RestrictedFamily, e.Metric, e.Params, e.B, 0, e.Pool)
		rebuild = func(vp *pdata.ValuePDF) error {
			_, err := wavelet.NewSweep(vp, wavelet.RestrictedFamily, e.Metric, e.Params, e.B, 0, e.Pool)
			return err
		}
	}
	if err != nil {
		return pt, err
	}

	// The update positions: near the tail for the histogram (the workload
	// the bounded re-DP is built for), mid-domain for the wavelets.
	updateAt := data.N / 2
	if family == "histogram" {
		updateAt = data.N - max(1, data.N/16)
	}
	if family == "wavelet-restricted" && op == "update" {
		// Untimed setup: pin the item to an exactly-representable mean so
		// the timed corrections below are mean-preserving (fast path).
		if err := live.Update(updateAt, meanOneA); err != nil {
			return pt, err
		}
		data.Items[updateAt] = meanOneA.Clone()
	}

	// Settle the heap between timed sections: the retained tables of the
	// previous family's live state are garbage by now, and collecting
	// them mid-measurement would bill one side arbitrarily.
	runtime.GC()
	start := time.Now()
	for m := 0; m < muts; m++ {
		if op == "append" {
			items := appendBatch(batch, m)
			if err := live.Append(items); err != nil {
				return pt, err
			}
			for _, it := range items {
				data.Items = append(data.Items, it.Clone())
			}
			data.N = len(data.Items)
		} else {
			it := meanOneB
			if m%2 == 1 {
				it = meanOneA
			}
			if err := live.Update(updateAt, it); err != nil {
				return pt, err
			}
			data.Items[updateAt] = it.Clone()
		}
	}
	pt.IncrementalSeconds = time.Since(start).Seconds() / float64(muts)

	runtime.GC()
	start = time.Now()
	if err := rebuild(data); err != nil {
		return pt, err
	}
	pt.RebuildSeconds = time.Since(start).Seconds()
	if pt.IncrementalSeconds > 0 {
		pt.Speedup = pt.RebuildSeconds / pt.IncrementalSeconds
	}
	return pt, nil
}
