package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"probsyn/internal/hist"
	"probsyn/internal/wavelet"
)

// benchHistogram builds a deterministic B-bucket histogram over [0, n).
func benchHistogram(n, b int) *hist.Histogram {
	rng := rand.New(rand.NewSource(7))
	h := &hist.Histogram{N: n}
	width := n / b
	for k := 0; k < b; k++ {
		end := n - 1
		if k+1 < b {
			end = (k+1)*width - 1
		}
		h.Buckets = append(h.Buckets, hist.Bucket{Start: k * width, End: end, Rep: rng.Float64() * 10})
	}
	return h
}

// benchWavelet builds a deterministic B-coefficient wavelet synopsis over
// a power-of-two domain n.
func benchWavelet(n, b int) *wavelet.Synopsis {
	rng := rand.New(rand.NewSource(8))
	keep := map[int]bool{0: true}
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
		s.Values[k] = rng.Float64()*4 - 2
	}
	return s
}

// BenchmarkServeEstimate measures the point-estimate hot path: compiled
// querier vs the uncompiled Synopsis method, both families. The compiled
// sub-benchmarks are the serve path and must report 0 allocs/op.
func BenchmarkServeEstimate(b *testing.B) {
	h := benchHistogram(4096, 64)
	w := benchWavelet(4096, 64)
	hq := CompileHistogram(h)
	wq := CompileWavelet(w)
	sink := 0.0
	b.Run("histogram/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += hq.Estimate(i & 4095)
		}
	})
	b.Run("histogram/uncompiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += h.Estimate(i & 4095)
		}
	})
	b.Run("wavelet/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += wq.Estimate(i & 4095)
		}
	})
	b.Run("wavelet/uncompiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += w.Estimate(i & 4095)
		}
	})
	benchSink = sink
}

// BenchmarkServeRangeSum measures the range-sum hot path. The acceptance
// bar for this PR: wavelet/compiled at n=4096, B=64 must be at least 5x
// faster than wavelet/uncompiled (the O(B) coefficient scan).
func BenchmarkServeRangeSum(b *testing.B) {
	h := benchHistogram(4096, 64)
	w := benchWavelet(4096, 64)
	hq := CompileHistogram(h)
	wq := CompileWavelet(w)
	sink := 0.0
	b.Run("histogram/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := i & 2047
			sink += hq.RangeSum(lo, lo+1024)
		}
	})
	b.Run("histogram/uncompiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := i & 2047
			sink += h.RangeSum(lo, lo+1024)
		}
	})
	b.Run("wavelet/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := i & 2047
			sink += wq.RangeSum(lo, lo+1024)
		}
	})
	b.Run("wavelet/uncompiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := i & 2047
			sink += w.RangeSum(lo, lo+1024)
		}
	})
	benchSink = sink
}

// benchBatchBody is the JSON body of an n-op batch whose ops take k
// distinct keys in turn (k = n: every key distinct), alternating
// estimates and range sums over [0, 4096). Each key differs from the
// others in its dataset, family or budget, as a served catalog's do;
// k = 64 is the shape of bench/'s serve-batch bodies.
func benchBatchBody(b *testing.B, n, k int) []byte {
	rng := rand.New(rand.NewSource(9))
	families := [2]string{"histogram", "wavelet"}
	req := &BatchRequest{Ops: make([]Op, n)}
	for i := range req.Ops {
		j := i % k
		op := Op{BatchKey: BatchKey{Dataset: "ds" + strconv.Itoa(j%4), Family: families[j/4%2], Metric: "SSE", Budget: 1 + j/8}}
		if i%2 == 0 {
			op.Op, op.I = OpEstimate, rng.Intn(4096)
		} else {
			op.Op, op.Lo = OpRangeSum, rng.Intn(2048)
			op.Hi = op.Lo + rng.Intn(2048)
		}
		req.Ops[i] = op
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkEvalBatch measures the batch evaluator over a resolver that
// answers every key with one querier: the per-op overhead the /v1/query
// handler adds on top of the querier itself, with the request decoded
// first as the handler decodes it. keys=16384 (a MaxBatchOps batch of
// distinct keys) is the worst case; its per-op cost (ns/batch-op) must
// stay near keys=64's.
func BenchmarkEvalBatch(b *testing.B) {
	h := benchHistogram(4096, 64)
	q := CompileHistogram(h)
	resolve := func(BatchKey) (Querier, int, *OpError) { return q, h.N, nil }
	for _, c := range []struct{ ops, keys int }{{100, 1}, {1024, 64}, {MaxBatchOps, MaxBatchOps}} {
		b.Run(fmt.Sprintf("keys=%d", c.keys), func(b *testing.B) {
			var req BatchRequest
			if err := DecodeBatch(benchBatchBody(b, c.ops, c.keys), &req); err != nil {
				b.Fatal(err)
			}
			resp := &BatchResponse{Results: make([]OpResult, 0, len(req.Ops))}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp.Results = resp.Results[:0]
				EvalBatch(&req, resolve, resp)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(req.Ops)), "ns/batch-op")
		})
	}
}

// benchResponse is a 1024-result response shaped like a served batch's:
// values of every magnitude a synopsis gives, and now and then an error.
func benchResponse() *BatchResponse {
	rng := rand.New(rand.NewSource(10))
	resp := &BatchResponse{Results: make([]OpResult, 1024)}
	for i := range resp.Results {
		resp.Results[i].Value = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-2))
		if i%64 == 63 {
			resp.Results[i] = OpResult{Err: &OpError{Code: "bad_request", Message: "item 4096 outside domain [0, 4096)"}}
		}
	}
	return resp
}

// BenchmarkEncodeResponse measures the response encoder into a reused
// buffer, as the /v1/query handler calls it. It must report 0 allocs/op.
func BenchmarkEncodeResponse(b *testing.B) {
	resp := benchResponse()
	var buf bytes.Buffer
	if err := EncodeResponse(&buf, resp); err != nil { // grows the buffer, once
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := EncodeResponse(&buf, resp); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink float64
