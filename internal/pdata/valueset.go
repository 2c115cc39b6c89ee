package pdata

import (
	"fmt"
	"sort"
)

// ValueSet is the sorted global frequency support V (§2.1): the set of all
// frequency values any item can take on, always including 0. Oracles index
// their precomputed tables by position in V.
type ValueSet struct {
	Values []float64 // strictly increasing; Values[0] == 0 in count models
}

// Len returns |V|.
func (vs *ValueSet) Len() int { return len(vs.Values) }

// Index returns the position of value v in V, or -1 if absent.
func (vs *ValueSet) Index(v float64) int {
	i := sort.SearchFloat64s(vs.Values, v)
	if i < len(vs.Values) && vs.Values[i] == v {
		return i
	}
	return -1
}

// newValueSet sorts and dedups raw values, forcing 0 into the set.
func newValueSet(raw []float64) ValueSet {
	raw = append(raw, 0)
	sort.Float64s(raw)
	out := raw[:1]
	for _, v := range raw[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return ValueSet{Values: out}
}

// Support returns the global value set of a source:
//   - value pdf: the union of listed frequencies plus 0;
//   - basic / tuple pdf: the integers 0..maxMultiplicity, where
//     maxMultiplicity is the largest number of tuples that can
//     simultaneously instantiate to a single item.
func Support(src Source) ValueSet {
	switch s := src.(type) {
	case *ValuePDF:
		raw := make([]float64, 0, s.M())
		for i := range s.Items {
			for _, e := range s.Items[i].Entries {
				raw = append(raw, e.Freq)
			}
		}
		return newValueSet(raw)
	case *Basic:
		counts := make([]int, s.N)
		maxC := 0
		for _, t := range s.Tuples {
			if t.Prob > 0 {
				counts[t.Item]++
				if counts[t.Item] > maxC {
					maxC = counts[t.Item]
				}
			}
		}
		return integerValues(maxC)
	case *TuplePDF:
		counts := make([]int, s.N)
		seen := make(map[int]bool)
		maxC := 0
		for k := range s.Tuples {
			// within one tuple, alternatives are exclusive: an item gains at
			// most one occurrence per tuple no matter how many alternatives
			// name it.
			for key := range seen {
				delete(seen, key)
			}
			for _, a := range s.Tuples[k].Alts {
				if a.Prob > 0 && !seen[a.Item] {
					seen[a.Item] = true
					counts[a.Item]++
					if counts[a.Item] > maxC {
						maxC = counts[a.Item]
					}
				}
			}
		}
		return integerValues(maxC)
	default:
		panic(fmt.Sprintf("pdata: Support: unknown source type %T", src))
	}
}

func integerValues(maxC int) ValueSet {
	vals := make([]float64, maxC+1)
	for i := range vals {
		vals[i] = float64(i)
	}
	return ValueSet{Values: vals}
}
