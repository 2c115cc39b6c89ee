package catalog

import (
	"math"
	"testing"

	"probsyn/internal/hist"
	"probsyn/internal/query"
)

func TestResolve(t *testing.T) {
	whole, err := NewKey("ds", FamilyHistogram, "SSRE", 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	held := query.Compile(&hist.Histogram{N: 12, Buckets: []hist.Bucket{{Start: 0, End: 11, Rep: 9}}})
	get := func(k Key) (query.Querier, *query.OpError) {
		if k.Dataset == "elsewhere" {
			return nil, &query.OpError{Code: "not_found", Message: "withdrawn entry"}
		}
		if k == whole {
			return held, nil
		}
		return nil, nil
	}
	bk := query.BatchKey{Dataset: "ds", Family: FamilyHistogram, Metric: "SSRE", Budget: 4} // c omitted: the default applies

	key, q, operr := Resolve(bk, 0.5, get)
	if operr != nil || key != whole || q != held {
		t.Fatalf("whole key: %v %v %v", key, q, operr)
	}
	if _, _, operr := Resolve(bk, 0.75, get); operr == nil || operr.Code != "not_found" ||
		operr.Message != "no synopsis for ds/histogram/SSRE(c=0.75)/4 (build it first)" {
		t.Fatalf("another default c found the c=0.5 build: %+v", operr)
	}
	bk.Budget = 0
	if _, _, operr := Resolve(bk, 0.5, get); operr == nil || operr.Code != "bad_request" {
		t.Fatalf("budget 0 resolved: %+v", operr)
	}
	// A source's own error passes through.
	bk.Budget, bk.Dataset = 4, "elsewhere"
	if _, _, operr := Resolve(bk, 0.5, get); operr == nil || operr.Code != "not_found" || operr.Message != "withdrawn entry" {
		t.Fatalf("source error not passed through: %+v", operr)
	}
	if _, _, operr := Resolver(0.5, get)(bk); operr == nil || operr.Message != "withdrawn entry" {
		t.Fatalf("Resolver dropped the source error: %+v", operr)
	}
}

// A NaN sanity constant would make a key that equals nothing — not even
// itself, so never its own filename's parse — and an infinite one a key no
// response could echo: JSON writes neither.
func TestNewKeyRejectsNonFiniteC(t *testing.T) {
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewKey("ds", FamilyHistogram, "SSRE", 4, c); err == nil {
			t.Fatalf("sanity constant %v accepted", c)
		}
		if _, err := NewKey("ds", FamilyHistogram, "SSE", 4, c); err != nil {
			t.Fatalf("c is unused for SSE, %v or not: %v", c, err)
		}
	}
}
