package catalog

import (
	"math"
	"sync"
	"testing"

	"probsyn/internal/hist"
	"probsyn/internal/query"
)

// flatPiece is a one-bucket histogram over n items, every item rep.
func flatPiece(n int, rep float64) query.Querier {
	return query.Compile(&hist.Histogram{N: n, Buckets: []hist.Bucket{{Start: 0, End: n - 1, Rep: rep}}})
}

func TestResolve(t *testing.T) {
	whole, err := NewKey("ds", FamilyHistogram, "SSRE", 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	source := map[Key]query.Querier{whole: flatPiece(12, 9)}
	for s, n := range []int{3, 4, 5} {
		pk, err := whole.Piece(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		source[pk] = flatPiece(n, float64(s+1))
	}
	var mu sync.Mutex
	var asked []Key
	get := func(k Key) (query.Querier, *query.OpError) {
		mu.Lock()
		asked = append(asked, k)
		mu.Unlock()
		if k.Shards == 7 && k.Shard == 2 {
			return nil, &query.OpError{Code: "peer_unavailable", Message: "peer down"}
		}
		if k.Shards == 7 {
			return flatPiece(1, 1), nil
		}
		return source[k], nil
	}
	bk := query.BatchKey{Dataset: "ds", Family: FamilyHistogram, Metric: "SSRE", Budget: 4} // c omitted: the default applies

	key, q, operr := Resolve(bk, 0.5, get)
	if operr != nil || key != whole || q.Domain() != 12 {
		t.Fatalf("whole key: %v %v %v", key, q, operr)
	}
	if _, _, operr := Resolve(bk, 0.75, get); operr == nil || operr.Code != "not_found" ||
		operr.Message != "no synopsis for ds/histogram/SSRE(c=0.75)/4 (build it first)" {
		t.Fatalf("another default c found the c=0.5 build: %+v", operr)
	}

	bk.Shards = 3
	key, q, operr = Resolve(bk, 0.5, get)
	if operr != nil || key != whole || q.Domain() != 12 {
		t.Fatalf("gathered key: %v %v %v", key, q, operr)
	}
	// Pieces of 3, 4 and 5 items valued 1, 2 and 3: the boundaries come
	// from the pieces, the partials add in shard order.
	if got := q.RangeSum(2, 7); got != 1+4*2+3 {
		t.Fatalf("gathered RangeSum(2, 7) = %v", got)
	}
	if got := q.Estimate(7); got != 3 {
		t.Fatalf("gathered Estimate(7) = %v", got)
	}

	bk.Piece = 2 // shard 1, alone, in its own coordinates
	key, q, operr = Resolve(bk, 0.5, get)
	if want, _ := whole.Piece(1, 3); operr != nil || key != want || q.Domain() != 4 || q.Estimate(0) != 2 {
		t.Fatalf("piece key: %v %v %v", key, q, operr)
	}
	bk.Piece = 4
	if _, _, operr := Resolve(bk, 0.5, get); operr == nil || operr.Code != "bad_request" {
		t.Fatalf("piece 3 of 3 resolved: %+v", operr)
	}
	bk.Piece = 0

	// A missing piece is not_found, the first by index; a source's own
	// error passes through.
	p1, _ := whole.Piece(1, 3)
	p2, _ := whole.Piece(2, 3)
	delete(source, p1)
	delete(source, p2)
	if _, _, operr := Resolve(bk, 0.5, get); operr == nil || operr.Code != "not_found" ||
		operr.Message != "no synopsis for "+p1.String()+" (build it first)" {
		t.Fatalf("two pieces missing: %+v", operr)
	}
	bk.Shards = 7
	if _, _, operr := Resolve(bk, 0.5, get); operr == nil || operr.Code != "peer_unavailable" || operr.Message != "peer down" {
		t.Fatalf("source error not passed through: %+v", operr)
	}

	// A shard count nobody built is refused on piece 0, before it sizes
	// anything.
	bk.Shards = 1 << 40
	asked = nil
	if _, _, operr := Resolve(bk, 0.5, get); operr == nil || operr.Code != "not_found" {
		t.Fatalf("2^40 shards resolved: %+v", operr)
	}
	if len(asked) != 1 || asked[0].Shard != 0 {
		t.Fatalf("an unbuilt sharded key cost %d lookups, want piece 0 alone", len(asked))
	}
}

// A NaN sanity constant would make a key that equals nothing — not even
// itself, so never its own filename's parse.
func TestNewKeyRejectsNaN(t *testing.T) {
	nan := math.NaN()
	if _, err := NewKey("ds", FamilyHistogram, "SSRE", 4, nan); err == nil {
		t.Fatal("NaN sanity constant accepted")
	}
	if _, err := NewKey("ds", FamilyHistogram, "SSE", 4, nan); err != nil {
		t.Fatalf("c is unused for SSE, NaN or not: %v", err)
	}
}
