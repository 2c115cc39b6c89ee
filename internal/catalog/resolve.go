package catalog

import (
	"fmt"

	"probsyn/internal/query"
)

// Resolve maps a batch key to the querier that answers it and the
// canonical catalog key it names: the one resolver behind every read —
// psynd's GETs and batches, and psyn -query. An omitted c (0) means
// defaultC, as in builds. get looks the key up wherever the caller keeps
// synopses (a catalog, a directory of files); (nil, nil) from it means
// "no such synopsis" and becomes the one not_found answer.
func Resolve(bk query.BatchKey, defaultC float64, get func(Key) (query.Querier, *query.OpError)) (Key, query.Querier, *query.OpError) {
	c := bk.C
	if c == 0 {
		c = defaultC
	}
	key, err := NewKeyQ(bk.Dataset, bk.Family, bk.Metric, bk.Budget, c, bk.Q)
	if err != nil {
		return Key{}, nil, &query.OpError{Code: "bad_request", Message: err.Error()}
	}
	q, operr := get(key)
	if q == nil && operr == nil {
		operr = &query.OpError{Code: "not_found", Message: fmt.Sprintf("no synopsis for %s (build it first)", key)}
	}
	return key, q, operr
}

// Resolver binds Resolve to a default c and a synopsis source: the
// query.Resolver a batch evaluates through.
func Resolver(defaultC float64, get func(Key) (query.Querier, *query.OpError)) query.Resolver {
	return func(bk query.BatchKey) (query.Querier, int, *query.OpError) {
		_, q, operr := Resolve(bk, defaultC, get)
		if operr != nil {
			return nil, 0, operr
		}
		return q, q.Domain(), nil
	}
}
