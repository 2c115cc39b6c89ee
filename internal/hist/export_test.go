package hist

import (
	"probsyn/internal/metric"
	"probsyn/internal/pdata"
)

// NewWeightedAbsTable fills the SAE/SARE oracle from a dense pmf table, as
// NewWeightedAbs does from a value pdf's rows: the reference the resumed
// oracle is held to, and the way in for tables that no value pdf can
// express (raw rows that do not sum to one, say). It keeps no checkpoints
// and cannot resume.
func NewWeightedAbsTable(tab *pdata.PMFTable, kind metric.Kind, p metric.Params) (*WeightedAbs, error) {
	o, err := newWeightedAbs(tab.VS, tab.N(), kind, p)
	if err != nil {
		return nil, err
	}
	o.fill(0, tab.N(), func(i int) []float64 { return tab.P[i] })
	return o, nil
}
