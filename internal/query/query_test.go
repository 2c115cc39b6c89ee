package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"probsyn/internal/hist"
	"probsyn/internal/wavelet"
)

// randHistogram builds a random but Validate()-clean histogram: random
// bucket boundaries over a random domain, representatives spanning
// negative, zero, and positive values so sign-sensitive rounding paths
// are exercised.
func randHistogram(rng *rand.Rand) *hist.Histogram {
	n := 1 + rng.Intn(300)
	b := 1 + rng.Intn(n)
	starts := map[int]bool{0: true}
	for len(starts) < b {
		starts[rng.Intn(n)] = true
	}
	var sorted []int
	for s := range starts {
		sorted = append(sorted, s)
	}
	sort.Ints(sorted)
	h := &hist.Histogram{N: n}
	for k, s := range sorted {
		end := n - 1
		if k+1 < len(sorted) {
			end = sorted[k+1] - 1
		}
		rep := (rng.Float64() - 0.5) * 20
		if rng.Intn(8) == 0 {
			rep = 0
		}
		h.Buckets = append(h.Buckets, hist.Bucket{Start: s, End: end, Rep: rep})
	}
	return h
}

// randWavelet builds a random wavelet synopsis: a random subset of
// coefficient indices (root sometimes retained, sometimes not) with
// values spanning signs and magnitudes.
func randWavelet(rng *rand.Rand) *wavelet.Synopsis {
	n := 1 << (1 + rng.Intn(9)) // 2..512
	b := 1 + rng.Intn(n)
	keep := map[int]bool{}
	for len(keep) < b {
		keep[rng.Intn(n)] = true
	}
	var idx []int
	for i := range keep {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	s := &wavelet.Synopsis{N: n, Indices: idx, Values: make([]float64, len(idx))}
	for k := range s.Values {
		v := (rng.Float64() - 0.5) * 10
		if rng.Intn(8) == 0 {
			v = 0
		}
		s.Values[k] = v
	}
	return s
}

// bitEqual is the acceptance predicate: the same float64 bits, so even
// a +0.0 vs -0.0 drift between the compiled and reference paths fails.
func bitEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestCompiledHistogramBitIdentical: over random histograms and random
// (in-domain, out-of-domain, clamped, inverted) queries, the compiled
// querier returns the same bits as the Histogram methods.
func TestCompiledHistogramBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		h := randHistogram(rng)
		if err := h.Validate(); err != nil {
			t.Fatalf("trial %d: bad fixture: %v", trial, err)
		}
		q := CompileHistogram(h)
		n := h.N
		for qi := 0; qi < 200; qi++ {
			i := rng.Intn(2*n) - n/2
			if got, want := q.Estimate(i), h.Estimate(i); !bitEqual(got, want) {
				t.Fatalf("trial %d: Estimate(%d) = %x, reference %x", trial, i, math.Float64bits(got), math.Float64bits(want))
			}
			lo := rng.Intn(2*n) - n/2
			hi := rng.Intn(2*n) - n/2
			if got, want := q.RangeSum(lo, hi), h.RangeSum(lo, hi); !bitEqual(got, want) {
				t.Fatalf("trial %d: RangeSum(%d,%d) = %v (%x), reference %v (%x)",
					trial, lo, hi, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		// The full-domain sum through the seams both formulations share.
		if got, want := q.RangeSum(0, n-1), h.RangeSum(0, n-1); !bitEqual(got, want) {
			t.Fatalf("trial %d: full RangeSum differs", trial)
		}
	}
}

// TestCompiledWaveletBitIdentical is the wavelet twin: the compiled
// ancestor walk must reproduce the full coefficient scan bit for bit.
func TestCompiledWaveletBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		s := randWavelet(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: bad fixture: %v", trial, err)
		}
		q := CompileWavelet(s)
		n := s.N
		for qi := 0; qi < 200; qi++ {
			i := rng.Intn(2*n) - n/2
			if got, want := q.Estimate(i), s.Estimate(i); !bitEqual(got, want) {
				t.Fatalf("trial %d (n=%d, B=%d): Estimate(%d) = %v (%x), reference %v (%x)",
					trial, n, s.B(), i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			lo := rng.Intn(2*n) - n/2
			hi := rng.Intn(2*n) - n/2
			if got, want := q.RangeSum(lo, hi), s.RangeSum(lo, hi); !bitEqual(got, want) {
				t.Fatalf("trial %d (n=%d, B=%d): RangeSum(%d,%d) = %v (%x), reference %v (%x)",
					trial, n, s.B(), lo, hi, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if got, want := q.RangeSum(0, n-1), s.RangeSum(0, n-1); !bitEqual(got, want) {
			t.Fatalf("trial %d: full RangeSum differs", trial)
		}
	}
}

// TestCompiledWaveletSparsePathBitIdentical re-runs the wavelet identity
// property with the dense position table stripped, forcing the binary
// search fallback CompileWavelet uses beyond waveletDenseLimit (test
// domains are all below the limit, so the fallback needs its own pass).
func TestCompiledWaveletSparsePathBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		s := randWavelet(rng)
		q := CompileWavelet(s)
		q.pos = nil
		n := s.N
		for qi := 0; qi < 100; qi++ {
			i := rng.Intn(2*n) - n/2
			if got, want := q.Estimate(i), s.Estimate(i); !bitEqual(got, want) {
				t.Fatalf("trial %d: sparse Estimate(%d) = %v, reference %v", trial, i, got, want)
			}
			lo := rng.Intn(2*n) - n/2
			hi := rng.Intn(2*n) - n/2
			if got, want := q.RangeSum(lo, hi), s.RangeSum(lo, hi); !bitEqual(got, want) {
				t.Fatalf("trial %d: sparse RangeSum(%d,%d) = %v, reference %v", trial, lo, hi, got, want)
			}
		}
	}
}

// TestCompileDispatch: Compile returns the family-specific querier for
// the two known families and falls back to the synopsis itself (a valid
// if slower querier) for anything else.
func TestCompileDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := randHistogram(rng)
	if _, ok := Compile(h).(*HistogramQuerier); !ok {
		t.Fatalf("Compile(histogram) = %T, want *HistogramQuerier", Compile(h))
	}
	w := randWavelet(rng)
	if _, ok := Compile(w).(*WaveletQuerier); !ok {
		t.Fatalf("Compile(wavelet) = %T, want *WaveletQuerier", Compile(w))
	}
	var other stubSynopsis
	if got := Compile(other); got != other {
		t.Fatalf("Compile(unknown family) = %T, want the synopsis itself", got)
	}
}

type stubSynopsis struct{}

func (stubSynopsis) Estimate(int) float64      { return 1 }
func (stubSynopsis) RangeSum(int, int) float64 { return 2 }
func (stubSynopsis) Terms() int                { return 0 }
func (stubSynopsis) ErrorCost() float64        { return 0 }
func (stubSynopsis) Domain() int               { return 1 }

// TestCompiledWaveletImmuneToSourceMutation: the querier copies the
// synopsis's slices at compile time — mutating the source afterwards
// (the invalidation hazard the catalog's republish-by-replacement
// avoids) must not skew already-compiled answers.
func TestCompiledWaveletImmuneToSourceMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randWavelet(rng)
	q := CompileWavelet(s)
	i := s.N / 2
	want := q.Estimate(i)
	for k := range s.Values {
		s.Values[k] += 100
	}
	if got := q.Estimate(i); !bitEqual(got, want) {
		t.Fatalf("querier answer moved with source mutation: %v -> %v", want, got)
	}
}

// TestQuerierHotPathZeroAlloc is the allocation gate of the acceptance
// criteria: Estimate and RangeSum on both compiled families allocate
// nothing, ever.
func TestQuerierHotPathZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := CompileHistogram(randHistogram(rng))
	w := CompileWavelet(randWavelet(rng))
	for name, fn := range map[string]func(){
		"histogram/Estimate": func() { h.Estimate(3) },
		"histogram/RangeSum": func() { h.RangeSum(1, h.n-1) },
		"wavelet/Estimate":   func() { w.Estimate(1) },
		"wavelet/RangeSum":   func() { w.RangeSum(1, w.n-1) },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestEvalBatch covers the batch evaluator: in-order results, per-op
// validation mirroring the single endpoints, per-key resolution caching,
// and per-op errors that do not fail the batch.
func TestEvalBatch(t *testing.T) {
	h := &hist.Histogram{N: 8, Buckets: []hist.Bucket{
		{Start: 0, End: 3, Rep: 2},
		{Start: 4, End: 7, Rep: 5},
	}}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	q := CompileHistogram(h)
	known := BatchKey{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 2}
	resolves := 0
	resolve := func(k BatchKey) (Querier, int, *OpError) {
		resolves++
		if k != known {
			return nil, 0, &OpError{Code: "not_found", Message: "no synopsis"}
		}
		return q, h.N, nil
	}
	req := &BatchRequest{Ops: []Op{
		{BatchKey: known, Op: OpEstimate, I: 5},
		{BatchKey: known, Op: OpRangeSum, Lo: 0, Hi: 7},
		{BatchKey: known, Op: OpRangeSum, Lo: -3, Hi: 99}, // clamps like the GET endpoint
		{BatchKey: known, Op: OpEstimate, I: 99},          // out of domain: per-op bad_request
		{BatchKey: known, Op: OpRangeSum, Lo: 5, Hi: 2},   // inverted: per-op bad_request
		{BatchKey: BatchKey{Dataset: "nope"}, Op: OpEstimate, I: 0},
		{BatchKey: known, Op: "median", I: 1}, // unknown op
	}}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	var resp BatchResponse
	EvalBatch(req, resolve, &resp)
	if len(resp.Results) != len(req.Ops) {
		t.Fatalf("%d results for %d ops", len(resp.Results), len(req.Ops))
	}
	if r := resp.Results[0]; r.Err != nil || r.Value != 5 {
		t.Fatalf("estimate result = %+v", r)
	}
	if r := resp.Results[1]; r.Err != nil || r.Value != h.RangeSum(0, 7) {
		t.Fatalf("rangesum result = %+v", r)
	}
	if r := resp.Results[2]; r.Err != nil || r.Value != h.RangeSum(0, 7) {
		t.Fatalf("clamped rangesum result = %+v", r)
	}
	for i, wantCode := range map[int]string{3: "bad_request", 4: "bad_request", 5: "not_found", 6: "bad_request"} {
		if r := resp.Results[i]; r.Err == nil || r.Err.Code != wantCode {
			t.Fatalf("result %d = %+v, want %s error", i, r, wantCode)
		}
	}
	// Two distinct keys in the batch, so exactly two resolver calls: the
	// per-key cache amortizes lookup across the whole batch.
	if resolves != 2 {
		t.Fatalf("%d resolver calls, want 2", resolves)
	}

	// 64 keys x 16 interleaved ops, opened and closed by an op whose c is
	// -0 (one key with c = 0), reach EvalBatch from the fast decoder, from
	// the stdlib fallback, and built in code; the last also carries two
	// ops whose c is NaN, which match no key and so are resolved once
	// each.
	keys := distinctKeys()
	negZero := keys[0]
	negZero.C = math.Copysign(0, -1)
	ops := append([]Op{{BatchKey: negZero, Op: OpEstimate, I: 1}}, interleavedOps(keys)...)
	ops = append(ops, Op{BatchKey: negZero, Op: OpRangeSum, Lo: 2, Hi: 9})
	nan := keys[1]
	nan.C = math.NaN()
	built := append(slices.Clone(ops), Op{BatchKey: nan, Op: OpEstimate}, Op{BatchKey: nan, Op: OpEstimate})
	for _, c := range []struct {
		name     string
		req      *BatchRequest
		resolves int
	}{
		{"fast", decodeBody(t, batchBody(ops, "")), 64},
		{"stdlib", decodeBody(t, batchBody(ops, `,"unknown":1`)), 64},
		{"built", &BatchRequest{Ops: built}, 66},
	} {
		t.Run("keys/"+c.name, func(t *testing.T) {
			var calls []BatchKey
			var resp BatchResponse
			EvalBatch(c.req, keyResolver(keys, &calls), &resp)
			if len(calls) != c.resolves {
				t.Fatalf("%d resolver calls, want %d", len(calls), c.resolves)
			}
			if got, want := fmt.Sprint(calls), fmt.Sprint(firstAppearance(c.req.Ops)); got != want {
				t.Fatalf("resolved\n %s\nwant first appearances\n %s", got, want)
			}
			checkPerOp(t, c.req.Ops, resp.Results, keyResolver(keys, nil))
		})
	}

	// A decoded request whose ops were then edited resolves the edited
	// keys, once each, and answers every op per its own key.
	for name, edit := range map[string]func(ops []Op) []Op{
		"first op changes key":    func(ops []Op) []Op { ops[0].Budget = 99; return ops },
		"op joins another key":    func(ops []Op) []Op { ops[71].BatchKey = keys[5]; return ops },
		"op takes a new key":      func(ops []Op) []Op { ops[300].Dataset = "zz"; return ops },
		"key's first op is moved": func(ops []Op) []Op { ops[7].BatchKey = keys[5]; return ops },
		"ops reversed":            func(ops []Op) []Op { slices.Reverse(ops); return ops },
		"op appended":             func(ops []Op) []Op { return append(ops, Op{BatchKey: keys[3], Op: OpEstimate, I: 3}) },
	} {
		t.Run("edited/"+name, func(t *testing.T) {
			req := decodeBody(t, batchBody(ops, ""))
			req.Ops = edit(req.Ops)
			var calls []BatchKey
			var resp BatchResponse
			EvalBatch(req, keyResolver(keys, &calls), &resp)
			checkPerOp(t, req.Ops, resp.Results, keyResolver(keys, nil))
			if got, want := fmt.Sprint(calls), fmt.Sprint(firstAppearance(req.Ops)); got != want {
				t.Fatalf("resolved\n %s\nwant first appearances\n %s", got, want)
			}
		})
	}
}

// keyQuerier is the querier of the key with index q: it folds the index
// into every answer, so an op answered by another key's querier shows.
type keyQuerier int

func (q keyQuerier) Estimate(i int) float64 { return float64(q)*(1<<20) + float64(i) }
func (q keyQuerier) RangeSum(lo, hi int) float64 {
	return float64(q)*(1<<40) + float64(lo)*(1<<20) + float64(hi)
}
func (q keyQuerier) Domain() int { return 64 }

// distinctKeys are 64 distinct keys, each differing from some other in
// exactly one field, for every field a key compares.
func distinctKeys() []BatchKey {
	keys := make([]BatchKey, 64)
	for k := range keys {
		keys[k] = BatchKey{
			Dataset: [2]string{"ds", "dt"}[k&1],
			Family:  [2]string{"histogram", "wavelet"}[k>>1&1],
			Metric:  [2]string{"SSE", "SSRE"}[k>>2&1],
			Budget:  1 + k>>3&1,
			Q:       4 * (k >> 4 & 1),
			C:       0.5 * float64(k>>5&1),
		}
	}
	return keys
}

// interleavedOps is 16 ops per key with the keys taken in turn, each
// round of keys alternating between estimates and range sums.
func interleavedOps(keys []BatchKey) []Op {
	ops := make([]Op, 16*len(keys))
	for i := range ops {
		ops[i] = Op{BatchKey: keys[i%len(keys)], Op: OpEstimate, I: i % 64}
		if i/len(keys)%2 == 1 {
			ops[i] = Op{BatchKey: keys[i%len(keys)], Op: OpRangeSum, Lo: i % 32, Hi: i%32 + 16}
		}
	}
	return ops
}

// keyResolver resolves keys[k] to keyQuerier(k) and any other key to
// not_found, appending each key it is asked for to *calls if calls is
// not nil.
func keyResolver(keys []BatchKey, calls *[]BatchKey) Resolver {
	return func(k BatchKey) (Querier, int, *OpError) {
		if calls != nil {
			*calls = append(*calls, k)
		}
		if i := slices.Index(keys, k); i >= 0 {
			return keyQuerier(i), keyQuerier(i).Domain(), nil
		}
		return nil, 0, &OpError{Code: "not_found", Message: "no synopsis"}
	}
}

// firstAppearance is the key of each op that is == to no op before it,
// in op order: the keys EvalBatch must resolve, in the order it must
// resolve them.
func firstAppearance(ops []Op) []BatchKey {
	var keys []BatchKey
next:
	for i := range ops {
		for j := range keys {
			if keys[j] == ops[i].BatchKey {
				continue next
			}
		}
		keys = append(keys, ops[i].BatchKey)
	}
	return keys
}

// checkPerOp fails unless each result is the op's answer on its own:
// its key resolved alone, then Eval.
func checkPerOp(t *testing.T, ops []Op, results []OpResult, resolve Resolver) {
	t.Helper()
	if len(results) != len(ops) {
		t.Fatalf("%d results for %d ops", len(results), len(ops))
	}
	for i := range ops {
		q, _, err := resolve(ops[i].BatchKey)
		want := OpResult{Err: err}
		if err == nil {
			want = Eval(&ops[i], q)
		}
		if got := results[i]; !bitEqual(got.Value, want.Value) || !reflect.DeepEqual(got.Err, want.Err) {
			t.Fatalf("op %d %+v: result %+v, answered alone %+v", i, ops[i], got, want)
		}
	}
}

// batchBody writes ops as a batch body with every member present and c
// written with its sign (encoding/json omits a c of -0), then extra
// before the closing brace.
func batchBody(ops []Op, extra string) []byte {
	b := []byte(`{"ops":[`)
	for i, op := range ops {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"dataset":%q,"family":%q,"metric":%q,"budget":%d,"q":%d,"c":%s,"op":%q,"i":%d,"lo":%d,"hi":%d}`,
			op.Dataset, op.Family, op.Metric, op.Budget, op.Q, strconv.FormatFloat(op.C, 'g', -1, 64), op.Op, op.I, op.Lo, op.Hi)
	}
	return append(append(b, ']'), extra+"}"...)
}

func decodeBody(t *testing.T, body []byte) *BatchRequest {
	t.Helper()
	req := &BatchRequest{}
	if err := DecodeBatch(body, req); err != nil {
		t.Fatal(err)
	}
	return req
}

// TestEvalBatchReusesResults: appending into a response with retained
// capacity (the server's pooling pattern) neither clobbers earlier
// results nor reallocates when capacity suffices.
func TestEvalBatchReusesResults(t *testing.T) {
	h := &hist.Histogram{N: 4, Buckets: []hist.Bucket{{Start: 0, End: 3, Rep: 1}}}
	q := CompileHistogram(h)
	resolve := func(BatchKey) (Querier, int, *OpError) { return q, h.N, nil }
	req := &BatchRequest{Ops: []Op{{Op: OpEstimate, I: 1}}}
	resp := &BatchResponse{Results: make([]OpResult, 0, 64)}
	base := &resp.Results[:1][0]
	for round := 0; round < 5; round++ {
		resp.Results = resp.Results[:0]
		EvalBatch(req, resolve, resp)
		if len(resp.Results) != 1 || resp.Results[0].Value != 1 {
			t.Fatalf("round %d: results %+v", round, resp.Results)
		}
		if &resp.Results[:1][0] != base {
			t.Fatalf("round %d: results slice reallocated despite capacity", round)
		}
	}

	// A pooled request that last held a 64-key batch: a small batch
	// decoded into it, by either path, resolves its own two keys once
	// each and answers per them.
	keys := distinctKeys()
	small := []Op{{BatchKey: keys[9], Op: OpEstimate, I: 4}, {BatchKey: keys[2], Op: OpEstimate, I: 5}, {BatchKey: keys[9], Op: OpRangeSum, Lo: 1, Hi: 3}}
	for name, extra := range map[string]string{"fast": "", "stdlib": `,"unknown":1`} {
		pooled := decodeBody(t, batchBody(interleavedOps(keys), ""))
		EvalBatch(pooled, keyResolver(keys, nil), resp)
		if err := DecodeBatch(batchBody(small, extra), pooled); err != nil {
			t.Fatal(err)
		}
		var calls []BatchKey
		resp.Results = resp.Results[:0]
		EvalBatch(pooled, keyResolver(keys, &calls), resp)
		if !slices.Equal(calls, []BatchKey{keys[9], keys[2]}) {
			t.Fatalf("%s: pooled request resolved %v, want keys 9 and 2", name, calls)
		}
		checkPerOp(t, pooled.Ops, resp.Results, keyResolver(keys, nil))
	}
}

func TestBatchValidate(t *testing.T) {
	if err := (&BatchRequest{}).Validate(); err == nil {
		t.Fatal("empty batch validated")
	}
	big := &BatchRequest{Ops: make([]Op, MaxBatchOps+1)}
	if err := big.Validate(); err == nil {
		t.Fatal("oversized batch validated")
	}
	ok := &BatchRequest{Ops: make([]Op, 1)}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func ExampleEncodeResponse() {
	resp := &BatchResponse{Results: []OpResult{{Value: 2.5}, {Err: &OpError{Code: "not_found", Message: "no synopsis"}}}}
	var sb sortableBuf
	_ = EncodeResponse(&sb, resp)
	fmt.Print(sb.s)
	// Output: {"results":[{"value":2.5},{"value":0,"error":{"code":"not_found","message":"no synopsis"}}]}
}

type sortableBuf struct{ s string }

func (b *sortableBuf) Write(p []byte) (int, error) { b.s += string(p); return len(p), nil }
