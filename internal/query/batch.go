// The batch protocol: one request carrying many heterogeneous
// estimate/range-sum operations against one or many cataloged synopses,
// answered in order. POST /v1/query (internal/server) and psyn -query
// (cmd/psyn) both evaluate batches through EvalBatch and serialize
// through EncodeResponse, so a served response body and an offline one
// over the same catalog are byte-identical. Those bytes are encoding/json's
// for a BatchResponse (the documented wire type), written without
// reflection by encode.go.
//
// An answer is a finite number or an error: evalOp turns a sum that
// overflowed into a per-op error (code internal), so every evaluated
// batch has a JSON form.
package query

import (
	"fmt"
	"hash/maphash"
	"math"
)

// Batch protocol limits, shared by every evaluator so offline and served
// batches accept exactly the same requests.
const (
	// MaxBatchOps bounds the operations in one batch: enough to amortize
	// per-request overhead thousands of times over, small enough that a
	// hostile batch cannot pin a handler for seconds.
	MaxBatchOps = 1 << 14
)

// BatchKey names the synopsis an operation queries — the wire twin of
// catalog.Key (the catalog package depends on this one, so the key is
// mirrored rather than imported).
type BatchKey struct {
	Dataset string  `json:"dataset"`
	Family  string  `json:"family"`
	Metric  string  `json:"metric"`
	Budget  int     `json:"budget"`
	C       float64 `json:"c,omitempty"`
	// Q selects a quantized (approximate restricted DP) wavelet build;
	// 0 queries the exact synopsis. Exact and quantized entries coexist
	// under distinct catalog keys, so the querying side must say which.
	Q int `json:"q,omitempty"`
}

// The two operation kinds.
const (
	OpEstimate = "estimate"
	OpRangeSum = "rangesum"
)

// Op is one operation of a batch: which synopsis to query (the embedded
// key) and what to ask it. Estimate uses I; rangesum uses Lo and Hi.
type Op struct {
	BatchKey
	Op string `json:"op"`
	I  int    `json:"i,omitempty"`
	Lo int    `json:"lo,omitempty"`
	Hi int    `json:"hi,omitempty"`
}

// BatchRequest is the POST /v1/query (and psyn -query) body.
type BatchRequest struct {
	Ops []Op `json:"ops"`
}

// OpError is a per-operation failure: the same stable codes the single
// query endpoints use (bad_request, not_found, and internal for an answer
// that is not a finite number).
type OpError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// OpResult answers one operation: the value, or the error that kept it
// from being answered (Value is meaningless when Err is set). One failed
// operation never fails the batch — results stay index-aligned with the
// request's ops.
type OpResult struct {
	Value float64  `json:"value"`
	Err   *OpError `json:"error,omitempty"`
}

// BatchResponse answers a batch, one result per op in request order.
type BatchResponse struct {
	Results []OpResult `json:"results"`
}

// Resolver maps a batch key to the compiled querier that answers it plus
// the synopsis's queryable domain size, or an OpError (typically
// not_found, or bad_request for a malformed key). EvalBatch consults it
// once per distinct key in the batch, so a resolver may do real work
// (a catalog lookup under a lock, a file read) per key without it
// multiplying across a large batch.
type Resolver func(k BatchKey) (Querier, int, *OpError)

// resolvedKey is the resolver's answer for one distinct key of a batch;
// key points at the first op that named it.
type resolvedKey struct {
	key    *BatchKey
	hash   uint64
	q      Querier
	domain int
	err    *OpError
}

// batchKeys finds each op's resolvedKey in O(1): an open-addressed table
// with linear probing, kept at most half full, whose slots hold an index
// into keys plus one (0 is empty). Keys compare with ==, so c = 0 and
// c = -0 are one key, and a key whose c is NaN equals nothing, not even
// itself, and gets an entry for each op that names it. A map[BatchKey]
// does the same with a copy of each 72-byte key in its slots, moved as
// it grows: on a 2-CPU x86-64 box its per-op cost at 16,384 distinct
// keys was 3.4-4.1x its cost at 64 (this table's 2.4x), and at 64 keys
// it allocated 26 kB a batch to this table's 9.5 kB.
type batchKeys struct {
	slots []int32
	keys  []resolvedKey
}

// keySeed seeds the batch key hash: keys come from request bodies, and a
// hash a client cannot predict keeps a body of colliding keys from
// turning each probe into a scan.
var keySeed = maphash.MakeSeed()

// find returns k's entry, adding an unresolved one (q, domain and err
// zero) if k is new; the entry is valid until the next find.
func (t *batchKeys) find(k *BatchKey) (rk *resolvedKey, found bool) {
	if 2*len(t.keys) >= len(t.slots) {
		t.slots = make([]int32, max(16, 2*len(t.slots)))
		for j := range t.keys {
			t.slots[t.probe(t.keys[j].hash, nil)] = int32(j + 1)
		}
	}
	h := maphash.Comparable(keySeed, *k)
	i := t.probe(h, k)
	if t.slots[i] != 0 {
		return &t.keys[t.slots[i]-1], true
	}
	t.keys = append(t.keys, resolvedKey{key: k, hash: h})
	t.slots[i] = int32(len(t.keys))
	return &t.keys[len(t.keys)-1], false
}

// probe walks hash h's probe sequence to the slot holding a key == k, or
// to the first empty slot.
func (t *batchKeys) probe(h uint64, k *BatchKey) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		if rk := &t.keys[t.slots[i]-1]; k != nil && rk.hash == h && *rk.key == *k {
			break
		}
		i = (i + 1) & mask
	}
	return i
}

// EvalBatch answers every operation of the request in order, appending
// to resp.Results (callers reuse pooled responses by truncating first).
// Key resolution is amortized: each distinct key in the batch is
// resolved exactly once, in order of first appearance, successes and
// failures both kept, so a batch of thousands of ops against one
// synopsis performs one lookup. An op finds its key's answer in a hash
// table (batchKeys), in O(1) however many distinct keys the batch names
// (a served batch over a 64-entry catalog names about 64). The per-op
// validation mirrors the single GET endpoints: estimates reject
// out-of-domain items, range sums reject inverted or fully-out-of-domain
// ranges and clamp partially overlapping ones.
func EvalBatch(req *BatchRequest, resolve Resolver, resp *BatchResponse) {
	if cap(resp.Results)-len(resp.Results) < len(req.Ops) {
		grown := make([]OpResult, len(resp.Results), len(resp.Results)+len(req.Ops))
		copy(grown, resp.Results)
		resp.Results = grown
	}
	var keys batchKeys
	for i := range req.Ops {
		op := &req.Ops[i]
		rk, found := keys.find(&op.BatchKey)
		if !found {
			rk.q, rk.domain, rk.err = resolve(op.BatchKey)
		}
		if rk.err != nil {
			resp.Results = append(resp.Results, OpResult{Err: rk.err})
			continue
		}
		resp.Results = append(resp.Results, evalOp(op, rk.q, rk.domain))
	}
}

// Eval answers one operation against the querier its key resolved to:
// the rules EvalBatch applies per op, so a point GET is a batch of one.
func Eval(op *Op, q Querier) OpResult { return evalOp(op, q, q.Domain()) }

// evalOp is the one op evaluator: domain checks, then the querier. A
// synopsis holds finite numbers only (its Validate), but sums of them can
// overflow; an answer that is not a finite number has no JSON form, so it
// is an error of the op (code internal), never a value.
func evalOp(op *Op, q Querier, domain int) OpResult {
	var v float64
	switch op.Op {
	case OpEstimate:
		if op.I < 0 || op.I >= domain {
			return opErrorf("bad_request", "item %d outside domain [0, %d)", op.I, domain)
		}
		v = q.Estimate(op.I)
	case OpRangeSum:
		if op.Lo > op.Hi {
			return opErrorf("bad_request", "empty range [%d, %d]", op.Lo, op.Hi)
		}
		if op.Hi < 0 || op.Lo >= domain {
			return opErrorf("bad_request", "range [%d, %d] outside domain [0, %d)", op.Lo, op.Hi, domain)
		}
		v = q.RangeSum(op.Lo, op.Hi)
	default:
		return opErrorf("bad_request", "unknown op %q (want %q or %q)", op.Op, OpEstimate, OpRangeSum)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return opErrorf("internal", "the synopsis answers %v, which is not a finite number", v)
	}
	return OpResult{Value: v}
}

func opErrorf(code, format string, args ...any) OpResult {
	return OpResult{Err: &OpError{Code: code, Message: fmt.Sprintf(format, args...)}}
}

// Validate rejects batches no evaluator should attempt: empty (almost
// certainly a malformed body) or beyond the shared op bound.
func (r *BatchRequest) Validate() error {
	if len(r.Ops) == 0 {
		return fmt.Errorf("query batch carries no ops")
	}
	if len(r.Ops) > MaxBatchOps {
		return fmt.Errorf("query batch carries %d ops, limit %d", len(r.Ops), MaxBatchOps)
	}
	return nil
}
