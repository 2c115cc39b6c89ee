package hist

import (
	"fmt"

	"probsyn/internal/metric"
	"probsyn/internal/pdata"
)

// NewOracle wires a probabilistic source to the bucket-cost oracle for the
// requested metric, routing each model to the algorithm the paper gives
// for it:
//
//   - SSE: value pdf uses the independent-item decomposition; tuple pdf
//     (and the basic model, as its special case) uses the exact
//     correlated-bucket oracle.
//   - SSEFixed: per-item moments, any model.
//   - SSRE, SAE, SARE, MAE, MARE: per-item-decomposable costs; tuple pdf
//     and basic inputs are converted to the induced value pdf first (§2.1).
func NewOracle(src pdata.Source, k metric.Kind, p metric.Params) (Oracle, error) {
	switch k {
	case metric.SSE:
		switch s := src.(type) {
		case *pdata.ValuePDF:
			return NewSSEValue(s), nil
		case *pdata.TuplePDF:
			return NewSSETuple(s), nil
		case *pdata.Basic:
			return NewSSETuple(s.TuplePDF()), nil
		default:
			return nil, fmt.Errorf("hist: SSE oracle: unsupported source %T", src)
		}
	case metric.SSEFixed:
		return NewSSEFixed(src), nil
	case metric.SSRE:
		return NewSSRE(pdata.AsValuePDF(src), p), nil
	case metric.SAE, metric.SARE:
		return NewWeightedAbs(pdata.AsValuePDF(src), k, p)
	case metric.MAE, metric.MARE:
		vp := pdata.AsValuePDF(src)
		tab, err := pdata.NewPMFTable(vp, pdata.Support(vp))
		if err != nil {
			return nil, err
		}
		return NewMaxAbs(tab, k, p)
	default:
		return nil, fmt.Errorf("hist: no oracle for metric %v", k)
	}
}
