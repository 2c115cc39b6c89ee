package catalog

import (
	"fmt"
	"math/rand"
	"testing"

	"probsyn/internal/hist"
	"probsyn/internal/synopsis"
	"probsyn/internal/wavelet"
)

// benchCatalogDir materializes a 64-entry catalog directory — .psyn
// envelopes plus the packed flat file — shared by the two boot
// benchmarks so they measure the same logical catalog. The synopses are
// serving-sized (kilobucket histograms, kiloterm wavelets with dense
// lookup tables): the codec path's decode-and-recompile cost scales
// with these sizes while the flat path's attach cost does not, which is
// the scaling the format exists to fix.
func benchCatalogDir(b *testing.B) string {
	b.Helper()
	rng := rand.New(rand.NewSource(51))
	c := New()
	for i := 0; i < 64; i++ {
		var (
			syn synopsis.Synopsis
			fam string
		)
		if i%2 == 0 {
			h := randHistogramB(rng, 8192)
			syn, fam = h, FamilyHistogram
		} else {
			w := randWaveletB(rng, 16384)
			syn, fam = w, FamilyWavelet
		}
		key, err := NewKey(fmt.Sprintf("bench%03d", i), fam, "SSE", 1+i, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Put(key, syn); err != nil {
			b.Fatal(err)
		}
	}
	dir := b.TempDir()
	saveAll(b, c, dir)
	if _, err := Pack(FlatPath(dir), c.List()); err != nil {
		b.Fatal(err)
	}
	return dir
}

// firstQuery performs the boot's first read — a Get (paying a flat-backed
// entry's first-touch decode) and an estimate — so both benchmarks
// measure time-to-first-answer, not time-to-attach.
func firstQuery(b *testing.B, c *Catalog) {
	b.Helper()
	key, err := NewKey("bench000", FamilyHistogram, "SSE", 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	e, ok := c.Get(key)
	if !ok {
		b.Fatal("boot lost the probe entry")
	}
	if v := e.Querier.Estimate(7); v != v {
		b.Fatal("NaN estimate")
	}
}

// BenchmarkCatalogBootFlat measures a replica restart over the flat
// file: open + header/index validation + attach + first query (one
// entry's decode and compile, not sixty-four). The format's acceptance
// bar was >= 20x faster than BenchmarkCatalogBootCodec on this same
// 64-entry catalog of serving-sized synopses (about 50x: 0.15 against
// 7.6 ms); nothing compares the two rows but a reader. bench/ times both
// boots of its own 64-entry catalog of small synopses in every traced run,
// catalog.boot_flat_ms against catalog.boot_codec_ms, a median of 50
// BootDir calls with no first query: 0.18 against 0.91 ms.
func BenchmarkCatalogBootFlat(b *testing.B) {
	dir := benchCatalogDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New()
		f, flatN, _, err := BootDir(c, dir, nil)
		if err != nil {
			b.Fatal(err)
		}
		if f == nil || flatN != 64 {
			b.Fatalf("flat boot fell back (flatN = %d)", flatN)
		}
		firstQuery(b, c)
		f.Close()
	}
}

// BenchmarkCatalogBootCodec measures the same restart through the codec
// path: decode every envelope, recompile every querier, first query.
func BenchmarkCatalogBootCodec(b *testing.B) {
	dir := benchCatalogDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New()
		n, err := c.LoadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		if n != 64 {
			b.Fatalf("loaded %d entries, want 64", n)
		}
		firstQuery(b, c)
	}
}

// Benchmark-sized random synopses: serving-sized, so the codec path has
// its real work to do (a 1024-bucket histogram and a 2048-term wavelet
// over a 16K domain are plausible served sizes under the heavy-traffic
// north star).
func randHistogramB(rng *rand.Rand, n int) *hist.Histogram {
	h := &hist.Histogram{N: n}
	b := 1024
	width := n / b
	for k := 0; k < b; k++ {
		end := (k+1)*width - 1
		if k == b-1 {
			end = n - 1
		}
		cost := rng.Float64()
		h.Buckets = append(h.Buckets, hist.Bucket{Start: k * width, End: end, Rep: rng.NormFloat64(), Cost: cost})
		h.Cost += cost
	}
	return h
}

func randWaveletB(rng *rand.Rand, n int) *wavelet.Synopsis {
	w := &wavelet.Synopsis{N: n, Cost: rng.Float64()}
	for i := 0; i < n; i += 8 {
		w.Indices = append(w.Indices, i)
		w.Values = append(w.Values, rng.NormFloat64())
	}
	return w
}
