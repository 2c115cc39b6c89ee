package catalog

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"probsyn/internal/hist"
	"probsyn/internal/metric"
	"probsyn/internal/ptest"
	"probsyn/internal/query"
	"probsyn/internal/synopsis"
	"probsyn/internal/wavelet"
)

func buildPair(t *testing.T) (*hist.Histogram, *wavelet.Synopsis) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	src := ptest.RandomValuePDF(rng, 16, 3)
	o := hist.NewSSEValue(src)
	h, err := hist.OptimalPool(o, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := wavelet.BuildSSE(src, 5)
	if err != nil {
		t.Fatal(err)
	}
	return h, w
}

// saveAll writes every entry of c into dir through Save and returns how
// many files it wrote.
func saveAll(tb testing.TB, c *Catalog, dir string) int {
	tb.Helper()
	entries := c.List()
	for _, e := range entries {
		if _, err := c.Save(dir, e); err != nil {
			tb.Fatal(err)
		}
	}
	return len(entries)
}

func TestNewKeyCanonicalizesAndValidates(t *testing.T) {
	k, err := NewKey("web-logs", FamilyHistogram, "SSE-fixed", 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if k.Metric != metric.SSEFixed.String() {
		t.Fatalf("metric canonicalized to %q", k.Metric)
	}
	if k.C != 0 {
		t.Fatalf("C = %g for a non-relative metric, want 0", k.C)
	}
	rel, err := NewKey("d", FamilyHistogram, "SSRE", 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rel.C != 0.5 {
		t.Fatalf("C = %g for SSRE, want 0.5", rel.C)
	}
	bad := []struct {
		dataset, family, metric string
		budget                  int
		c                       float64
	}{
		{"", FamilyHistogram, "SSE", 8, 0},
		{"d", "sketch", "SSE", 8, 0},
		{"d", FamilyHistogram, "XXX", 8, 0},
		{"d", FamilyHistogram, "SSE", 0, 0},
		{"d", FamilyHistogram, "SSRE", 8, 0}, // relative metric needs c > 0
	}
	for _, b := range bad {
		if _, err := NewKey(b.dataset, b.family, b.metric, b.budget, b.c); err == nil {
			t.Errorf("NewKey(%q, %q, %q, %d, %g) accepted", b.dataset, b.family, b.metric, b.budget, b.c)
		}
	}
}

func TestNewKeyQValidates(t *testing.T) {
	k, err := NewKeyQ("d", FamilyWavelet, "SAE", 8, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if k.Q != 16 {
		t.Fatalf("Q = %d, want 16", k.Q)
	}
	exact, err := NewKeyQ("d", FamilyWavelet, "SAE", 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := NewKey("d", FamilyWavelet, "SAE", 8, 0); exact != want {
		t.Fatalf("q=0 key %+v != NewKey %+v", exact, want)
	}
	bad := []struct {
		family, metric string
		c              float64
		q              int
	}{
		{FamilyWavelet, "SAE", 0, 1},       // q must be 0 or >= 2
		{FamilyWavelet, "SAE", 0, -3},      // negative q
		{FamilyHistogram, "SAE", 0, 4},     // quantization is wavelet-only
		{FamilyWavelet, "SSE", 0, 4},       // SSE wavelet build is greedy-exact
		{FamilyWavelet, "bogus", 0, 4},     // NewKey validation still applies
		{FamilyWavelet, "SSRE", 0, 4},      // relative metric still needs c
		{FamilyWavelet, "SSE-fixed", 0, 4}, // a histogram metric, at every q
		{FamilyWavelet, "SSE-fixed", 0, 0},
	}
	for _, b := range bad {
		if _, err := NewKeyQ("d", b.family, b.metric, 8, b.c, b.q); err == nil {
			t.Errorf("NewKeyQ(%q, %q, c=%g, q=%d) accepted", b.family, b.metric, b.c, b.q)
		}
	}
}

func TestFilenameRoundTrip(t *testing.T) {
	keys := []Key{
		{Dataset: "data", Family: FamilyHistogram, Metric: "SSE", Budget: 8},
		{Dataset: "weird--name/v2", Family: FamilyHistogram, Metric: "SSE-fixed", Budget: 100},
		{Dataset: "dots.and spaces", Family: FamilyHistogram, Metric: "MARE", Budget: 1, C: 0.5},
		{Dataset: "d", Family: FamilyWavelet, Metric: "SSRE", Budget: 3, C: 1.25},
		{Dataset: "big--domain", Family: FamilyWavelet, Metric: "SAE", Budget: 32, Q: 64},
		{Dataset: "d", Family: FamilyWavelet, Metric: "SARE", Budget: 5, C: 0.5, Q: 16},
		// Names that run into the separator (FuzzReadParams found "-": its
		// "---histogram…" was split at the first "--", not the last).
		{Dataset: "-", Family: FamilyHistogram, Metric: "SAE", Budget: 1},
		{Dataset: "a-", Family: FamilyWavelet, Metric: "SSE", Budget: 2},
		{Dataset: "--", Family: FamilyHistogram, Metric: "SSRE", Budget: 2, C: 1e-5},
		{Dataset: "-a---", Family: FamilyWavelet, Metric: "SAE", Budget: 2, Q: 4},
	}
	for _, k := range keys {
		canon, err := NewKeyQ(k.Dataset, k.Family, k.Metric, k.Budget, k.C, k.Q)
		if err != nil {
			t.Fatal(err)
		}
		name := canon.Filename()
		if filepath.Base(name) != name {
			t.Fatalf("filename %q escapes the directory", name)
		}
		back, err := ParseFilename(name)
		if err != nil {
			t.Fatalf("ParseFilename(%q): %v", name, err)
		}
		if back != canon {
			t.Fatalf("round trip %+v -> %q -> %+v", canon, name, back)
		}
	}
	for _, bad := range []string{
		"x.syn", "a--b.psyn", "a--b--c--8.psyn", "a--histogram--SSE--bx.psyn",
		"--b2.psyn", "SSE--b2.psyn", "histogram--SSE--b2.psyn", "--histogram--SSE--b2.psyn", // too few segments, no dataset
		"a--histogram--SSRE--b2.psyn",         // relative metric without its c segment
		"a--histogram--SSE--c0.5--b2.psyn",    // c segment on a metric that ignores it
		"a--histogram--SAE--q4--b2.psyn",      // q segment on a histogram key
		"a--wavelet--SSE--q4--b2.psyn",        // q segment on the greedy-exact SSE build
		"a--wavelet--SSE-fixed--b2.psyn",      // a histogram metric on a wavelet key
		"a--wavelet--SAE--q1--b2.psyn",        // q below the minimum grid size
		"a--wavelet--SAE--qx--b2.psyn",        // malformed q
		"a--wavelet--SARE--q4--c0.5--b2.psyn", // c and q out of canonical order
	} {
		if _, err := ParseFilename(bad); err == nil {
			t.Errorf("ParseFilename(%q) accepted", bad)
		}
	}
}

// A shard segment is no longer key syntax: the piece filenames the
// parent wrote do not parse (a directory holding them skips them like
// any foreign file), and a dataset that happens to be named like one
// still round-trips.
func TestShardSegmentIsNotKeySyntax(t *testing.T) {
	for _, old := range []string{
		"d--histogram--SSE--s0of2--b6.psyn",
		"d--wavelet--SAE--q4--s3of4--b12.psyn",
		"d--histogram--MARE--c0.5--s1of3--b6.psyn",
	} {
		if _, err := ParseFilename(old); err == nil {
			t.Errorf("ParseFilename(%q) accepted a shard piece name", old)
		}
	}
	ds, err := NewKey("x--s1of2", FamilyHistogram, "SSE", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := ParseFilename(ds.Filename()); err != nil || back != ds {
		t.Fatalf("dataset containing a shard-like segment: %q -> %+v (%v)", ds.Filename(), back, err)
	}
}

func TestCatalogPutGetList(t *testing.T) {
	h, w := buildPair(t)
	c := New()
	kh := Key{Dataset: "d", Family: FamilyHistogram, Metric: "SSE", Budget: 4}
	kw := Key{Dataset: "d", Family: FamilyWavelet, Metric: "SSE", Budget: 5}
	if _, _, err := c.Put(kh, h); err != nil {
		t.Fatal(err)
	}
	e, blob, err := c.Put(kw, w)
	if err != nil {
		t.Fatal(err)
	}
	if e.Bytes != len(blob) || e.Bytes == 0 {
		t.Fatalf("entry bytes %d, blob %d", e.Bytes, len(blob))
	}
	if got, ok := c.Get(kw); !ok || got.Synopsis != synopsis.Synopsis(w) {
		t.Fatalf("Get(%v) = %v, %v", kw, got, ok)
	}
	if _, ok := c.Get(Key{Dataset: "other", Family: FamilyHistogram, Metric: "SSE", Budget: 4}); ok {
		t.Fatal("Get on absent key succeeded")
	}
	list := c.List()
	if len(list) != 2 || c.Len() != 2 {
		t.Fatalf("List len %d, Len %d, want 2", len(list), c.Len())
	}
	if list[0].Key != kh || list[1].Key != kw {
		t.Fatalf("List order %v, %v", list[0].Key, list[1].Key)
	}
}

// Saving a catalog and loading it back must round-trip every entry with
// exact query equality (the envelope preserves float64 bits).
func TestCatalogDiskRoundTrip(t *testing.T) {
	h, w := buildPair(t)
	dir := t.TempDir()
	c := New()
	kh := Key{Dataset: "d", Family: FamilyHistogram, Metric: "SAE", Budget: 4}
	kw := Key{Dataset: "d", Family: FamilyWavelet, Metric: "SSE", Budget: 5}
	for k, s := range map[Key]synopsis.Synopsis{kh: h, kw: w} {
		if _, _, err := c.Put(k, s); err != nil {
			t.Fatal(err)
		}
	}
	if n := saveAll(t, c, dir); n != 2 {
		t.Fatalf("saved %d files, want 2", n)
	}
	// Unrelated files are skipped on load.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	back := New()
	if n, err := back.LoadDir(dir); err != nil || n != 2 {
		t.Fatalf("LoadDir = %d, %v", n, err)
	}
	for _, k := range []Key{kh, kw} {
		orig, _ := c.Get(k)
		got, ok := back.Get(k)
		if !ok {
			t.Fatalf("loaded catalog missing %v", k)
		}
		if got.Synopsis.Terms() != orig.Synopsis.Terms() || got.Synopsis.ErrorCost() != orig.Synopsis.ErrorCost() {
			t.Fatalf("%v: loaded (%d terms, cost %v) != saved (%d terms, cost %v)", k,
				got.Synopsis.Terms(), got.Synopsis.ErrorCost(), orig.Synopsis.Terms(), orig.Synopsis.ErrorCost())
		}
		for i := 0; i < 16; i++ {
			if a, b := got.Synopsis.Estimate(i), orig.Synopsis.Estimate(i); a != b {
				t.Fatalf("%v: Estimate(%d) %v != %v", k, i, a, b)
			}
		}
	}
}

// A catalog file whose envelope family disagrees with its filename must
// fail the load, as must a corrupt payload.
func TestLoadDirRejectsMismatchedAndCorrupt(t *testing.T) {
	h, _ := buildPair(t)
	blob, err := synopsis.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lying := Key{Dataset: "d", Family: FamilyWavelet, Metric: "SSE", Budget: 4}
	if err := os.WriteFile(filepath.Join(dir, lying.Filename()), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New().LoadDir(dir); err == nil {
		t.Fatal("family-mismatched catalog file loaded")
	}
	dir2 := t.TempDir()
	honest := Key{Dataset: "d", Family: FamilyHistogram, Metric: "SSE", Budget: 4}
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir2, honest.Filename()), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New().LoadDir(dir2); err == nil {
		t.Fatal("corrupt catalog file loaded")
	}
}

// Concurrent reads and writes must be safe (run under -race).
func TestCatalogConcurrentAccess(t *testing.T) {
	h, w := buildPair(t)
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := Key{Dataset: "d", Family: FamilyHistogram, Metric: "SSE", Budget: 1 + g%4}
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					var s synopsis.Synopsis = h
					if i%2 == 0 {
						s = w
					}
					if _, _, err := c.Put(k, s); err != nil {
						t.Error(err)
						return
					}
				} else {
					if e, ok := c.Get(k); ok {
						_ = e.Synopsis.Terms()
					}
					_ = c.List()
					_ = c.Len()
				}
			}
		}(g)
	}
	wg.Wait()
}

// WriteFile/ReadFile are the shared offline save/load path: every path,
// whatever its extension, gets the binary envelope, and it reloads.
func TestWriteReadFileEnvelopes(t *testing.T) {
	h, _ := buildPair(t)
	want, err := synopsis.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"h.syn", "h.json", "h"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			n, err := WriteFile(path, h)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) != n {
				t.Fatalf("WriteFile reported %d bytes, file has %d", n, len(data))
			}
			if !bytes.Equal(data, want) {
				t.Fatal("file is not the binary envelope")
			}
			back, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if back.Terms() != h.Terms() || back.ErrorCost() != h.ErrorCost() {
				t.Fatal("reload mismatch")
			}
		})
	}
}

// Every publish — Put, PutEncoded, a LoadDir — must install a compiled
// querier answering bit-identically to the entry's synopsis, so the
// serving read path never has to fall back to the uncompiled methods.
func TestEntriesCarryCompiledQueriers(t *testing.T) {
	h, w := buildPair(t)
	dir := t.TempDir()
	c := New()
	kh := Key{Dataset: "d", Family: FamilyHistogram, Metric: "SSE", Budget: 4}
	kw := Key{Dataset: "d", Family: FamilyWavelet, Metric: "SSE", Budget: 5}
	if _, _, err := c.Put(kh, h); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Put(kw, w); err != nil {
		t.Fatal(err)
	}
	saveAll(t, c, dir)
	loaded := New()
	if _, err := loaded.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, cat := range []*Catalog{c, loaded} {
		for _, e := range cat.List() {
			if e.Querier == nil {
				t.Fatalf("%v: entry published without a querier", e.Key)
			}
			if _, ok := e.Querier.(*query.HistogramQuerier); e.Key.Family == FamilyHistogram && !ok {
				t.Fatalf("%v: querier is %T, want compiled histogram querier", e.Key, e.Querier)
			}
			if _, ok := e.Querier.(*query.WaveletQuerier); e.Key.Family == FamilyWavelet && !ok {
				t.Fatalf("%v: querier is %T, want compiled wavelet querier", e.Key, e.Querier)
			}
			n := e.Synopsis.Domain()
			for i := 0; i < n; i++ {
				if got, want := e.Querier.Estimate(i), e.Synopsis.Estimate(i); got != want {
					t.Fatalf("%v: querier Estimate(%d) = %v, synopsis %v", e.Key, i, got, want)
				}
			}
			if got, want := e.Querier.RangeSum(0, n-1), e.Synopsis.RangeSum(0, n-1); got != want {
				t.Fatalf("%v: querier RangeSum = %v, synopsis %v", e.Key, got, want)
			}
		}
	}
}
