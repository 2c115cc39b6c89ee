package eval

import (
	"fmt"
	"time"

	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
	"probsyn/internal/synopsis"
	"probsyn/internal/wavelet"
)

// FrontierPoint is one (budget, cost) sample of a swept frontier.
type FrontierPoint struct {
	B     int     `json:"budget"`
	Terms int     `json:"terms"`
	Cost  float64 `json:"cost"`
}

// FrontierSeries is one family's whole cost-vs-budget frontier, with the
// wall time of the single DP run that produced it. The histogram series
// also carries the DP's work counters (see hist.DPStats) so the pruned
// DP's output-sensitivity is observable next to the timing; wavelet
// sweeps have no split scans and leave it nil.
type FrontierSeries struct {
	Family       string          `json:"family"` // "histogram", "wavelet", "wavelet-unrestricted"
	SweepSeconds float64         `json:"sweep_seconds"`
	DPStats      *hist.DPStats   `json:"dp_stats,omitempty"`
	Points       []FrontierPoint `json:"points"`
}

// FrontierExperiment produces Figure-2/Figure-4-style cost-vs-budget
// frontiers the cheap way: one DP run per family serves every budget up
// to Bmax, instead of one build per plotted point. The histogram series
// reads the DP table's budget levels; the wavelet series extracts each
// budget from the coefficient-tree sweep; with Quantize >= 0 an
// unrestricted series (quantized candidate values) rides along.
type FrontierExperiment struct {
	Source pdata.Source
	Metric metric.Kind
	Params metric.Params
	Bmax   int
	// Quantize, when >= 0, adds the unrestricted wavelet DP's frontier
	// at this quantization; < 0 skips it (the state space is exponential
	// in q and log n).
	Quantize int
	// Pool, when non-nil, schedules every DP on this shared engine pool,
	// matching the serving layer's one-pool-per-process discipline.
	Pool *engine.Pool
	// Catalog, when non-nil, receives the histogram and restricted
	// wavelet synopsis for every budget under Dataset's name — the same
	// entries (and bytes) a psynd /v1/sweep registers. Unrestricted
	// synopses are not cataloged: they are not byte-interchangeable with
	// the restricted builds the server runs under the same key.
	Catalog *catalog.Catalog
	// Dataset names the source in catalog keys; required with Catalog.
	Dataset string
}

// Run executes the experiment: one histogram DP, one restricted wavelet
// sweep, and optionally one unrestricted sweep.
func (e *FrontierExperiment) Run() ([]FrontierSeries, error) {
	if e.Bmax < 1 {
		return nil, fmt.Errorf("eval: frontier Bmax %d, want >= 1", e.Bmax)
	}
	var out []FrontierSeries

	o, err := hist.NewOracle(e.Source, e.Metric, e.Params)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tab, err := hist.RunDPPool(o, e.Bmax, e.Pool)
	if err != nil {
		return nil, err
	}
	stats := tab.Stats()
	hs := FrontierSeries{Family: catalog.FamilyHistogram, SweepSeconds: time.Since(start).Seconds(), DPStats: &stats}
	for b := 1; b <= tab.Bmax(); b++ {
		h, err := tab.Histogram(b)
		if err != nil {
			return nil, err
		}
		hs.Points = append(hs.Points, FrontierPoint{B: b, Terms: h.Terms(), Cost: tab.Cost(b)})
		if err := e.stash(catalog.FamilyHistogram, b, h); err != nil {
			return nil, err
		}
	}
	out = append(out, hs)

	start = time.Now()
	sw, err := wavelet.NewSweep(e.Source, wavelet.RestrictedFamily, e.Metric, e.Params, e.Bmax, 0, e.Pool)
	if err != nil {
		return nil, err
	}
	ws := FrontierSeries{Family: catalog.FamilyWavelet, SweepSeconds: time.Since(start).Seconds()}
	for b := 1; b <= sw.Bmax(); b++ {
		syn, err := sw.Synopsis(b)
		if err != nil {
			return nil, err
		}
		ws.Points = append(ws.Points, FrontierPoint{B: b, Terms: syn.Terms(), Cost: sw.Cost(b)})
		if err := e.stash(catalog.FamilyWavelet, b, syn); err != nil {
			return nil, err
		}
	}
	out = append(out, ws)

	if e.Quantize >= 0 {
		start = time.Now()
		usw, err := wavelet.NewSweep(e.Source, wavelet.UnrestrictedFamily, e.Metric, e.Params, e.Bmax, e.Quantize, e.Pool)
		if err != nil {
			return nil, err
		}
		us := FrontierSeries{Family: "wavelet-unrestricted", SweepSeconds: time.Since(start).Seconds()}
		for b := 1; b <= usw.Bmax(); b++ {
			syn, err := usw.Synopsis(b)
			if err != nil {
				return nil, err
			}
			us.Points = append(us.Points, FrontierPoint{B: b, Terms: syn.Terms(), Cost: usw.Cost(b)})
		}
		out = append(out, us)
	}
	return out, nil
}

// stash registers a swept synopsis in the experiment's catalog, when one
// is configured.
func (e *FrontierExperiment) stash(family string, b int, syn synopsis.Synopsis) error {
	if e.Catalog == nil {
		return nil
	}
	key, err := catalog.NewKey(e.Dataset, family, e.Metric.String(), b, e.Params.C)
	if err != nil {
		return err
	}
	_, _, err = e.Catalog.Put(key, syn)
	return err
}
