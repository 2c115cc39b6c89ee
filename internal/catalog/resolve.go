package catalog

import (
	"fmt"

	"probsyn/internal/engine"
	"probsyn/internal/query"
)

// Resolve maps a batch key to the querier that answers it and the
// canonical catalog key it names: the one resolver behind every read —
// psynd's point GETs, piece GETs, gathered GETs and batches, and psyn
// -query. An omitted c (0) means defaultC, as in builds. get looks one
// catalog key up wherever the caller keeps synopses (a catalog and its
// peers, a directory of files); (nil, nil) from it means "no such
// synopsis" and becomes the one not_found answer.
//
// A key with Piece set is that piece's own key and an ordinary lookup.
// A key with Shards >= 2 is answered by a query.ShardedQuerier over its
// k pieces. Piece 0 is looked up first and alone, so a key that was never
// built that way fails before k sizes anything; the rest are looked up
// concurrently, since a get may be a peer round trip.
func Resolve(bk query.BatchKey, defaultC float64, get func(Key) (query.Querier, *query.OpError)) (Key, query.Querier, *query.OpError) {
	c := bk.C
	if c == 0 {
		c = defaultC
	}
	key, err := NewKeyQ(bk.Dataset, bk.Family, bk.Metric, bk.Budget, c, bk.Q)
	if err == nil && bk.Piece != 0 {
		key, err = key.Piece(bk.Piece-1, bk.Shards)
	}
	if err != nil {
		return Key{}, nil, &query.OpError{Code: "bad_request", Message: err.Error()}
	}
	lookup := func(k Key) (query.Querier, *query.OpError) {
		q, operr := get(k)
		if q == nil && operr == nil {
			operr = &query.OpError{Code: "not_found", Message: fmt.Sprintf("no synopsis for %s (build it first)", k)}
		}
		return q, operr
	}
	if bk.Piece != 0 || bk.Shards < 2 {
		q, operr := lookup(key)
		return key, q, operr
	}
	piece := func(s int) (query.Querier, *query.OpError) {
		pk, _ := key.Piece(s, bk.Shards) // cannot fail: key is whole, 0 <= s < Shards
		return lookup(pk)
	}
	first, operr := piece(0)
	if operr != nil {
		return Key{}, nil, operr
	}
	pieces := make([]query.Querier, bk.Shards)
	operrs := make([]*query.OpError, bk.Shards)
	pieces[0] = first
	_ = engine.Fan(bk.Shards-1, bk.Shards-1, func(i int) error {
		pieces[i+1], operrs[i+1] = piece(i + 1)
		return nil
	})
	for _, operr := range operrs {
		if operr != nil {
			return Key{}, nil, operr
		}
	}
	sq, err := query.NewSharded(pieces)
	if err != nil {
		return Key{}, nil, &query.OpError{Code: "bad_request", Message: err.Error()}
	}
	return key, sq, nil
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
