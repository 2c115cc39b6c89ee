package pdata

// Moments holds the first two moments of every item's frequency
// distribution. These drive the SSE family of cost oracles (§3.1) and the
// wavelet coefficient statistics (§4.1).
type Moments struct {
	Mean   []float64 // E[g_i]
	MeanSq []float64 // E[g_i^2]
	Var    []float64 // Var[g_i] = E[g_i^2] - E[g_i]^2
}

// MomentsOf computes per-item moments for any source, in O(m).
//
// Value pdf: directly from each item's pdf.
// Basic / tuple pdf: g_i is a sum of independent Bernoulli indicators (one
// per tuple, with success probability Pr[t = i]), so
// Var[g_i] = Σ_t p_t(i)(1-p_t(i)) and E[g_i^2] = Var + E^2 (§3.1).
func MomentsOf(src Source) Moments {
	n := src.Domain()
	mom := Moments{
		Mean:   make([]float64, n),
		MeanSq: make([]float64, n),
		Var:    make([]float64, n),
	}
	switch s := src.(type) {
	case *ValuePDF:
		for i := range s.Items {
			mean, sq := s.Items[i].Mean(), s.Items[i].MeanSq()
			mom.Mean[i], mom.MeanSq[i], mom.Var[i] = mean, sq, sq-mean*mean
		}
	case *Basic:
		for _, t := range s.Tuples {
			mom.Mean[t.Item] += t.Prob
			mom.Var[t.Item] += t.Prob * (1 - t.Prob)
		}
		for i := 0; i < n; i++ {
			mom.MeanSq[i] = mom.Var[i] + mom.Mean[i]*mom.Mean[i]
		}
	case *TuplePDF:
		// Within a tuple, alternatives naming the same item merge into a
		// single Bernoulli with the summed probability.
		var run []Alternative
		for k := range s.Tuples {
			run = s.Tuples[k].AppendRun(run[:0])
			for _, a := range run {
				mom.Mean[a.Item] += a.Prob
				mom.Var[a.Item] += a.Prob * (1 - a.Prob)
			}
		}
		for i := 0; i < n; i++ {
			mom.MeanSq[i] = mom.Var[i] + mom.Mean[i]*mom.Mean[i]
		}
	default:
		// Generic fallback via the value pdf induced marginals would be
		// expensive; all shipped sources are covered above.
		panic("pdata: MomentsOf: unknown source type")
	}
	return mom
}

// InducedValuePDF computes, for a tuple pdf input, the per-item marginal
// frequency distributions Pr[g_i = v] (§2.1). Each item's frequency is a
// Poisson-binomial: the number of successes among independent Bernoullis,
// one per tuple that can instantiate to the item. The induced pdfs are NOT
// independent across items (tuples correlate them); they are exactly the
// object needed by the per-item-decomposable error metrics (§3.2-§3.6),
// whose costs depend only on the marginals.
//
// Cost: O(Σ_i k_i^2) where k_i is the number of tuples naming item i —
// the "inductive O(|V|) update per pair" of §2.1.
func InducedValuePDF(tp *TuplePDF) *ValuePDF {
	// Gather, per item, the Bernoulli success probabilities.
	perItem := make([][]float64, tp.N)
	var run []Alternative
	for k := range tp.Tuples {
		run = tp.Tuples[k].AppendRun(run[:0])
		for _, a := range run {
			if a.Prob > 0 {
				perItem[a.Item] = append(perItem[a.Item], a.Prob)
			}
		}
	}
	vp := &ValuePDF{N: tp.N, Items: make([]ItemPDF, tp.N)}
	for i, probs := range perItem {
		pmf := poissonBinomialPMF(probs)
		entries := make([]FreqProb, 0, len(pmf))
		for v, p := range pmf {
			if p > 0 {
				entries = append(entries, FreqProb{Freq: float64(v), Prob: p})
			}
		}
		vp.Items[i] = ItemPDF{Entries: entries}
	}
	return vp
}

// poissonBinomialPMF returns pmf[v] = Pr[#successes = v] for independent
// Bernoulli trials with the given success probabilities, by iterative
// convolution.
func poissonBinomialPMF(probs []float64) []float64 {
	pmf := make([]float64, 1, len(probs)+1)
	pmf[0] = 1
	for _, q := range probs {
		pmf = append(pmf, 0)
		for v := len(pmf) - 1; v >= 1; v-- {
			pmf[v] = pmf[v]*(1-q) + pmf[v-1]*q
		}
		pmf[0] *= 1 - q
	}
	return pmf
}

// AsValuePDF returns the per-item marginal value pdf of any source:
// the identity for *ValuePDF, and the induced value pdf otherwise.
// The result captures per-item marginals only; cross-item correlations of
// the tuple pdf model are deliberately dropped (see InducedValuePDF).
func AsValuePDF(src Source) *ValuePDF {
	switch s := src.(type) {
	case *ValuePDF:
		return s
	case *Basic:
		return InducedValuePDF(s.TuplePDF())
	case *TuplePDF:
		return InducedValuePDF(s)
	default:
		panic("pdata: AsValuePDF: unknown source type")
	}
}

// PMFTable is a dense per-item pmf over a global ValueSet:
// P[i][j] = Pr[g_i = V[j]], including the implicit zero mass.
// It is the common precomputation feeding the SAE/SARE/MAE/MARE oracles.
type PMFTable struct {
	VS ValueSet
	P  [][]float64 // n x |V|
}

// NewPMFTable builds the dense table for a value pdf over the given set.
// Every frequency in vp must be a member of vs.
func NewPMFTable(vp *ValuePDF, vs ValueSet) (*PMFTable, error) {
	n, k := vp.N, vs.Len()
	flatP := make([]float64, n*k)
	t := &PMFTable{VS: vs, P: make([][]float64, n)}
	for i := 0; i < n; i++ {
		row := flatP[i*k : (i+1)*k : (i+1)*k]
		if freq, ok := vs.PMFRow(row, &vp.Items[i]); !ok {
			return nil, errValueNotInSupport(i, freq)
		}
		t.P[i] = row
	}
	return t, nil
}

// PMFRow writes one item's pmf over V into row (len |V|): row[j] =
// Pr[g = V[j]], the implicit zero mass included — one row of
// NewPMFTable. It reports the first listed frequency V lacks, if any.
func (vs *ValueSet) PMFRow(row []float64, it *ItemPDF) (missing float64, ok bool) {
	clear(row)
	row[0] = it.ZeroProb()
	for _, e := range it.Entries {
		if e.Freq == 0 {
			continue
		}
		j := vs.Index(e.Freq)
		if j < 0 {
			return e.Freq, false
		}
		row[j] += e.Prob
	}
	return 0, true
}

func errValueNotInSupport(item int, freq float64) error {
	return &supportError{item: item, freq: freq}
}

type supportError struct {
	item int
	freq float64
}

func (e *supportError) Error() string {
	return "pdata: frequency value not in the provided ValueSet"
}

// N returns the number of items.
func (t *PMFTable) N() int { return len(t.P) }
