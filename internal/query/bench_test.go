package query

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
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

// BenchmarkEvalBatch measures the batch evaluator over a pre-resolved
// querier: the per-op overhead the /v1/query handler adds on top of the
// querier itself.
func BenchmarkEvalBatch(b *testing.B) {
	h := benchHistogram(4096, 64)
	q := CompileHistogram(h)
	key := BatchKey{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 64}
	req := &BatchRequest{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			req.Ops = append(req.Ops, Op{BatchKey: key, Op: OpEstimate, I: rng.Intn(4096)})
		} else {
			lo := rng.Intn(2048)
			req.Ops = append(req.Ops, Op{BatchKey: key, Op: OpRangeSum, Lo: lo, Hi: lo + rng.Intn(2048)})
		}
	}
	resolve := func(BatchKey) (Querier, int, *OpError) { return q, h.N, nil }
	resp := &BatchResponse{Results: make([]OpResult, 0, len(req.Ops))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp.Results = resp.Results[:0]
		EvalBatch(req, resolve, resp)
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
