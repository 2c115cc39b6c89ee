package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"probsyn/internal/hist"
	"probsyn/internal/query"
	"probsyn/internal/synopsis"
	"probsyn/internal/wavelet"
)

// randHistogram assembles a random but valid histogram directly (no DP
// build): a random contiguous bucket partition of [0, n) with random
// representatives and costs. Hand assembly keeps the property tests
// fast and the coverage independent of what the builders happen to
// produce.
func randHistogram(rng *rand.Rand, n int) *hist.Histogram {
	b := 1 + rng.Intn(min(n, 12))
	cuts := map[int]bool{}
	for len(cuts) < b-1 {
		cuts[1+rng.Intn(n-1)] = true
	}
	starts := []int{0}
	for i := 1; i < n; i++ {
		if cuts[i] {
			starts = append(starts, i)
		}
	}
	h := &hist.Histogram{N: n}
	for k, s := range starts {
		end := n - 1
		if k+1 < len(starts) {
			end = starts[k+1] - 1
		}
		cost := rng.Float64() * 10
		h.Cost += cost
		h.Buckets = append(h.Buckets, hist.Bucket{Start: s, End: end, Rep: rng.NormFloat64(), Cost: cost})
	}
	return h
}

// randWavelet assembles a random but valid wavelet synopsis over a
// power-of-two domain: a random ascending subset of coefficient
// indices (sometimes including the root, index 0) with random values.
func randWavelet(rng *rand.Rand, n int) *wavelet.Synopsis {
	terms := 1 + rng.Intn(min(n, 10))
	idx := map[int]bool{}
	if rng.Intn(2) == 0 {
		idx[0] = true // root
	}
	for len(idx) < terms {
		idx[rng.Intn(n)] = true
	}
	s := &wavelet.Synopsis{N: n, Cost: rng.Float64() * 10}
	for i := 0; i < n; i++ {
		if idx[i] {
			s.Indices = append(s.Indices, i)
			s.Values = append(s.Values, rng.NormFloat64())
		}
	}
	return s
}

// randCatalog fills a catalog with count random entries alternating
// between the families (wavelet domains drawn from pows).
func randCatalog(t *testing.T, rng *rand.Rand, count int, pows []int) *Catalog {
	t.Helper()
	c := New()
	for i := 0; i < count; i++ {
		var (
			syn synopsis.Synopsis
			fam string
		)
		if i%2 == 0 {
			syn = randHistogram(rng, 2+rng.Intn(64))
			fam = FamilyHistogram
		} else {
			syn = randWavelet(rng, pows[rng.Intn(len(pows))])
			fam = FamilyWavelet
		}
		key, err := NewKey(fmt.Sprintf("ds%03d", i), fam, "SSE", 1+i, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Put(key, syn); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// sameBits fails the test unless the two queriers answer
// Float64bits-identically on a point and range sample over the domain.
func sameBits(t *testing.T, key Key, n int, got, want query.Querier, rng *rand.Rand) {
	t.Helper()
	points := n
	if points > 256 {
		points = 256
	}
	for s := 0; s < points; s++ {
		i := s
		if n > 256 {
			i = rng.Intn(n)
		}
		g, w := got.Estimate(i), want.Estimate(i)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%v: Estimate(%d) = %v (bits %x), compiled %v (bits %x)",
				key, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	for s := 0; s < 64; s++ {
		lo, hi := rng.Intn(n), rng.Intn(n)
		if lo > hi {
			lo, hi = hi, lo
		}
		g, w := got.RangeSum(lo, hi), want.RangeSum(lo, hi)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%v: RangeSum(%d, %d) = %v (bits %x), compiled %v (bits %x)",
				key, lo, hi, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// openAttached opens dir's flat file and attaches it to a new catalog.
func openAttached(t *testing.T, dir string, warnf func(string, ...any)) (*Flat, *Catalog) {
	t.Helper()
	f, err := OpenFlat(FlatPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	c := New()
	c.AttachFlat(f, warnf)
	return f, c
}

// TestFlatHoldsTheEnvelopeFiles is the format's one claim: the flat
// file's data section is the directory's .psyn files, byte for byte, and
// the file adds nothing to them but the header and the index.
func TestFlatHoldsTheEnvelopeFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := randCatalog(t, rng, 24, []int{2, 16, 256})
	dir := t.TempDir()
	for _, e := range src.List() {
		if _, err := WriteFile(filepath.Join(dir, e.Key.Filename()), e.Synopsis); err != nil {
			t.Fatal(err)
		}
	}
	flat, err := PackBytes(src.List())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBlob(FlatPath(dir), flat); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFlat(FlatPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Len() != src.Len() {
		t.Fatalf("index has %d records, packed %d", f.Len(), src.Len())
	}
	envelopes := 0
	for _, e := range f.entries {
		file, err := os.ReadFile(filepath.Join(dir, e.Key.Filename()))
		if err != nil {
			t.Fatal(err)
		}
		if got := flat[e.lazy.off : e.lazy.off+int64(e.Bytes)]; !bytes.Equal(got, file) {
			t.Fatalf("%v: indexed bytes [%d, +%d) differ from the .psyn file", e.Key, e.lazy.off, e.Bytes)
		}
		envelopes += len(file)
	}
	indexLen := int(binary.LittleEndian.Uint64(flat[16:]))
	if len(flat) > envelopes+indexLen+flatHeaderLen {
		t.Fatalf("flat file is %d bytes, more than %d of envelopes + %d of index + the %d-byte header",
			len(flat), envelopes, indexLen, flatHeaderLen)
	}
}

// TestFlatRoundTripBitIdentical: over random synopses of both families a
// packed-then-opened catalog hands back, on first Get, the concrete
// synopsis that was packed — same metadata, same envelope — behind a
// querier answering with the exact float64 bits the source's does.
func TestFlatRoundTripBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := randCatalog(t, rng, 40, []int{2, 8, 64, 1024})
	dir := t.TempDir()
	if _, err := Pack(FlatPath(dir), src.List()); err != nil {
		t.Fatal(err)
	}
	f, c := openAttached(t, dir, t.Logf)
	if f.Len() != src.Len() || c.Len() != src.Len() {
		t.Fatalf("opened %d, attached %d entries, packed %d", f.Len(), c.Len(), src.Len())
	}
	for _, want := range src.List() {
		e, ok := c.Get(want.Key)
		if !ok {
			t.Fatalf("flat catalog lost %v", want.Key)
		}
		switch e.Synopsis.(type) {
		case *hist.Histogram, *wavelet.Synopsis:
		default:
			t.Fatalf("%v: Synopsis is a %T, want the concrete family type", want.Key, e.Synopsis)
		}
		n := want.Synopsis.Domain()
		if e.Synopsis.Domain() != n || e.Synopsis.Terms() != want.Synopsis.Terms() {
			t.Fatalf("%v: metadata mismatch", want.Key)
		}
		if math.Float64bits(e.Synopsis.ErrorCost()) != math.Float64bits(want.Synopsis.ErrorCost()) {
			t.Fatalf("%v: ErrorCost mismatch", want.Key)
		}
		if e.Bytes != want.Bytes {
			t.Fatalf("%v: Bytes = %d, want %d", want.Key, e.Bytes, want.Bytes)
		}
		sameBits(t, want.Key, n, e.Querier, want.Querier, rng)
		wantBlob, err := synopsis.Marshal(want.Synopsis)
		if err != nil {
			t.Fatal(err)
		}
		gotBlob, err := synopsis.Marshal(e.Synopsis)
		if err != nil {
			t.Fatalf("%v: marshal after a flat boot: %v", want.Key, err)
		}
		if !bytes.Equal(gotBlob, wantBlob) {
			t.Fatalf("%v: envelope after a flat boot differs from the original", want.Key)
		}
	}
}

// TestFlatPackDeterministic: packing the same logical catalog must be
// byte-identical regardless of entry order — the offline psyn -pack and
// a server's shutdown pack are interchangeable.
func TestFlatPackDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := randCatalog(t, rng, 12, []int{32})
	entries := src.List()
	a, err := PackBytes(entries)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]*Entry(nil), entries...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b, err := PackBytes(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("pack order leaked into the file bytes")
	}
	// Re-packing a flat-attached catalog (what a server's shutdown pack
	// does after a flat boot) must also be byte-identical; List
	// is what decodes the entries no Get has touched.
	dir := t.TempDir()
	if err := WriteBlob(FlatPath(dir), a); err != nil {
		t.Fatal(err)
	}
	_, c := openAttached(t, dir, nil)
	again, err := PackBytes(c.List())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, a) {
		t.Fatal("re-pack of a flat-attached catalog differs from the original pack")
	}
}

// TestFlatFirstTouchConcurrent: Get and List racing to an entry's first
// touch decode it once and all see it decoded (run under -race).
func TestFlatFirstTouchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	src := randCatalog(t, rng, 8, []int{32})
	dir := t.TempDir()
	if _, err := Pack(FlatPath(dir), src.List()); err != nil {
		t.Fatal(err)
	}
	f, c := openAttached(t, dir, t.Logf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%4 == 0 {
				for _, e := range c.List() {
					if e.Synopsis == nil || e.Querier == nil {
						t.Errorf("List returned %v undecoded", e.Key)
					}
				}
				return
			}
			for _, k := range f.Keys() {
				e, ok := c.Get(k)
				if !ok || e.Synopsis == nil || e.Querier == nil {
					t.Errorf("Get(%v) = %v, %v", k, e, ok)
					continue
				}
				_ = e.Querier.Estimate(0)
			}
		}(g)
	}
	wg.Wait()
}

// TestBootDirFlat: BootDir attaches the flat file and codec-loads only
// what it does not cover.
func TestBootDirFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	src := randCatalog(t, rng, 10, []int{64})
	dir := t.TempDir()
	saveAll(t, src, dir)
	if _, err := Pack(FlatPath(dir), src.List()); err != nil {
		t.Fatal(err)
	}
	// One extra synopsis persisted after the pack: the flat file does
	// not cover it, so the codec path must pick it up.
	extraKey, err := NewKey("late-arrival", FamilyHistogram, "SSE", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	extra := randHistogram(rng, 32)
	blob, err := synopsis.Marshal(extra)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBlob(filepath.Join(dir, extraKey.Filename()), blob); err != nil {
		t.Fatal(err)
	}

	c := New()
	f, flatN, codecN, err := BootDir(c, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if f == nil {
		t.Fatal("BootDir did not use the flat file")
	}
	defer f.Close()
	if flatN != src.Len() || codecN != 1 {
		t.Fatalf("flatN = %d codecN = %d, want %d and 1", flatN, codecN, src.Len())
	}
	if _, ok := c.Get(extraKey); !ok {
		t.Fatal("codec-path entry missing after flat boot")
	}
	for _, want := range src.List() {
		e, ok := c.Get(want.Key)
		if !ok {
			t.Fatalf("%v missing after flat boot", want.Key)
		}
		sameBits(t, want.Key, want.Synopsis.Domain(), e.Querier, want.Querier, rng)
	}
}

// rewriteHeader recomputes the header CRC after a test mutates header
// bytes, so the mutation under test is the only validation failure.
func rewriteHeader(data []byte) {
	binary.LittleEndian.PutUint32(data[60:], crc32.ChecksumIEEE(data[:60]))
}

// rewriteIndex does the same for the index section.
func rewriteIndex(data []byte) {
	indexLen := binary.LittleEndian.Uint64(data[16:])
	binary.LittleEndian.PutUint32(data[32:], crc32.ChecksumIEEE(data[flatHeaderLen:flatHeaderLen+indexLen]))
	rewriteHeader(data)
}

// v1Header is the header page of the layout version 2 replaced: version 1
// at the same offset, the same header checksum, page-sized sections.
func v1Header() []byte {
	h := make([]byte, 4096)
	copy(h, flatMagic)
	binary.LittleEndian.PutUint32(h[8:], 1)
	binary.LittleEndian.PutUint32(h[12:], 0x01020304)
	binary.LittleEndian.PutUint32(h[16:], 4096)
	binary.LittleEndian.PutUint64(h[24:], 4096)
	binary.LittleEndian.PutUint64(h[40:], 4096)
	binary.LittleEndian.PutUint64(h[48:], 4096)
	binary.LittleEndian.PutUint32(h[56:], crc32.ChecksumIEEE(nil))
	rewriteHeader(h)
	return h
}

// TestBootDirFallsBack is the boot-ordering regression test and the
// damage table's open-time half: a flat file of another format version
// (a future one, or the versions 1 and 2 this format replaced), or one whose
// header, index or length is damaged, must fail OpenFlat before anything
// is attached, and BootDir must then warn and load the whole catalog
// through .psyn decode.
func TestBootDirFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	src := randCatalog(t, rng, 6, []int{32})
	good, err := PackBytes(src.List())
	if err != nil {
		t.Fatal(err)
	}
	firstOff := flatHeaderLen + binary.LittleEndian.Uint64(good[16:])
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		version bool // the failure must be ErrFlatVersion
	}{
		{"version ahead", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], flatVersion+1)
			rewriteHeader(b)
			return b
		}, true},
		{"version 1 file", func([]byte) []byte { return v1Header() }, false},
		{"version 2 file", func(b []byte) []byte {
			// The same layout, packed before the write path removed the
			// file on every write: it may be stale, so it is not read.
			binary.LittleEndian.PutUint32(b[8:], 2)
			rewriteHeader(b)
			return b
		}, false},
		{"truncated mid-data", func(b []byte) []byte { return b[:len(b)-5] }, false},
		{"truncated to header", func(b []byte) []byte { return b[:flatHeaderLen] }, false},
		{"truncated mid-header", func(b []byte) []byte { return b[:40] }, false},
		{"empty", func([]byte) []byte { return nil }, false},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }, false},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, false},
		{"header bit flip", func(b []byte) []byte { b[13] ^= 0x01; return b }, false},
		{"index bit flip", func(b []byte) []byte { b[flatHeaderLen+2] ^= 0x10; return b }, false},
		{"entry count lies", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 5)
			rewriteHeader(b)
			return b
		}, false},
		{"file size lies", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], uint64(len(b))+8)
			rewriteHeader(b)
			return b
		}, false},
		{"offset chain broken", func(b []byte) []byte {
			// The first record's offset field follows its key.
			keyLen := uint64(binary.LittleEndian.Uint32(b[flatHeaderLen:]))
			binary.LittleEndian.PutUint64(b[flatHeaderLen+4+keyLen:], firstOff+1)
			rewriteIndex(b)
			return b
		}, false},
		{"duplicate key", func(b []byte) []byte {
			// Two entries, the second record overwritten with the first's
			// key: same length, since the keys differ only in digits.
			two, err := PackBytes(src.List()[:2])
			if err != nil {
				t.Fatal(err)
			}
			keyLen := uint64(binary.LittleEndian.Uint32(two[flatHeaderLen:]))
			rec := flatRecordFixed + keyLen
			copy(two[flatHeaderLen+rec+4:flatHeaderLen+rec+4+keyLen], two[flatHeaderLen+4:])
			rewriteIndex(two)
			return two
		}, false},
		{"index names a shard piece", func([]byte) []byte {
			// A flat file packed when a sharded build's pieces were catalog
			// entries: d--histogram--SSE--s0of2--b6.psyn is not a key now.
			piece := &Entry{
				Key:      Key{Dataset: "d", Family: FamilyHistogram, Metric: "SSE--s0of2", Budget: 6},
				Synopsis: src.List()[0].Synopsis,
			}
			old, err := PackBytes(append(src.List(), piece))
			if err != nil {
				t.Fatal(err)
			}
			return old
		}, false},
		{"index names a wavelet SSE-fixed key", func([]byte) []byte {
			// Packed when wavelet SSE-fixed keys were admitted.
			old := &Entry{Key: Key{Dataset: "d", Family: FamilyWavelet, Metric: "SSE-fixed", Budget: 4}, Synopsis: src.List()[1].Synopsis}
			b, err := PackBytes(append(src.List(), old))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			saveAll(t, src, dir)
			data := tc.mutate(append([]byte(nil), good...))
			if err := os.WriteFile(FlatPath(dir), data, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := OpenFlat(FlatPath(dir))
			if err == nil {
				f.Close()
				t.Fatal("OpenFlat accepted the file")
			}
			if errors.Is(err, ErrFlatVersion) != tc.version {
				t.Fatalf("OpenFlat: %v; ErrFlatVersion expected: %v", err, tc.version)
			}

			var warned []string
			c := New()
			f, flatN, codecN, err := BootDir(c, dir, func(format string, args ...any) {
				warned = append(warned, fmt.Sprintf(format, args...))
			})
			if err != nil {
				t.Fatal(err)
			}
			if f != nil {
				t.Fatal("BootDir kept an unusable flat file open")
			}
			if flatN != 0 || codecN != src.Len() {
				t.Fatalf("flatN = %d codecN = %d, want 0 and %d (codec fallback)", flatN, codecN, src.Len())
			}
			if len(warned) != 1 {
				t.Fatalf("fallback warned %d times, want once: %q", len(warned), warned)
			}
			for _, want := range src.List() {
				if _, ok := c.Get(want.Key); !ok {
					t.Fatalf("%v missing after codec fallback", want.Key)
				}
			}
			// What the server packs at shutdown is the pristine file.
			if repacked, err := PackBytes(c.List()); err != nil || !bytes.Equal(repacked, good) {
				t.Fatalf("re-pack after fallback differs from the good file (%v)", err)
			}
		})
	}
}

// TestBootDirNoFlatFile: the common case (no flat file at all) loads
// through the codec path with no warning, skipping files that are not
// catalog files.
func TestBootDirNoFlatFile(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	src := randCatalog(t, rng, 4, []int{16})
	dir := t.TempDir()
	saveAll(t, src, dir)
	// A shard piece file left by an older psynd is a foreign file now, and
	// so are wavelet SSE-fixed entries, whatever envelope they hold.
	env, err := synopsis.Marshal(src.List()[1].Synopsis)
	if err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{
		"d--histogram--SSE--s0of2--b6.psyn":   []byte("PSYN"),
		"d--wavelet--SSE-fixed--b4.psyn":      env,
		"d--wavelet--SSE-fixed--q16--b4.psyn": env,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var warned int
	c := New()
	f, flatN, codecN, err := BootDir(c, dir, func(string, ...any) { warned++ })
	if err != nil {
		t.Fatal(err)
	}
	if f != nil || flatN != 0 || codecN != src.Len() || warned != 0 {
		t.Fatalf("f=%v flatN=%d codecN=%d warned=%d, want nil/0/%d/0", f, flatN, codecN, warned, src.Len())
	}
}

// TestFlatBadEntryWithdrawn is the damage table's per-entry half: damage
// the open-time checks cannot see (header and index are intact) is caught
// when the entry is first touched, by Get or by List — the entry is
// withdrawn with a warning, never served, and the others serve.
func TestFlatBadEntryWithdrawn(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	src := randCatalog(t, rng, 4, []int{32})
	good, err := PackBytes(src.List())
	if err != nil {
		t.Fatal(err)
	}
	firstOff := flatHeaderLen + binary.LittleEndian.Uint64(good[16:])
	victim := src.List()[0]
	flip := func(at uint64) func(*testing.T, []byte) []byte {
		return func(_ *testing.T, b []byte) []byte { b[at] ^= 0x40; return b }
	}
	cases := []struct {
		name   string
		mutate func(*testing.T, []byte) []byte
		closed bool // Close the Flat before the first touch
	}{
		{"envelope magic flipped", flip(firstOff + 2), false},
		{"envelope payload flipped", flip(firstOff + uint64(victim.Bytes)/2), false},
		{"envelope checksum flipped", flip(firstOff + uint64(victim.Bytes) - 1), false},
		{"envelope of the other family", func(t *testing.T, _ []byte) []byte {
			// A valid wavelet envelope under the victim's histogram key:
			// only the family-vs-key check can object.
			entries := src.List()
			entries[0] = &Entry{Key: victim.Key, Synopsis: randWavelet(rng, 32)}
			b, err := PackBytes(entries)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}, false},
		{"envelope holding a number JSON cannot write", func(t *testing.T, _ []byte) []byte {
			// Well formed and checksummed; only the synopsis's own Validate
			// can object, or the key would list and answer with empty bodies.
			entries := src.List()
			h := randHistogram(rng, 32)
			h.Buckets[0].Rep = math.NaN()
			entries[0] = &Entry{Key: victim.Key, Synopsis: h}
			b, err := PackBytes(entries)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}, false},
		{"file closed before first touch", func(_ *testing.T, b []byte) []byte { return b }, true},
	}
	for _, tc := range cases {
		for _, via := range []string{"Get", "List"} {
			t.Run(tc.name+"/"+via, func(t *testing.T) {
				dir := t.TempDir()
				data := tc.mutate(t, append([]byte(nil), good...))
				if err := WriteBlob(FlatPath(dir), data); err != nil {
					t.Fatal(err)
				}
				var warned int
				f, c := openAttached(t, dir, func(string, ...any) { warned++ })
				others := f.Keys()[1:]
				if tc.closed {
					// Decode the others first: what Close costs is the
					// entries nobody has touched yet.
					for _, k := range others {
						if _, ok := c.Get(k); !ok {
							t.Fatalf("intact entry %v withdrawn", k)
						}
					}
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if via == "List" {
					for _, e := range c.List() {
						if e.Key == victim.Key {
							t.Fatal("List returned the bad entry")
						}
					}
				}
				if _, ok := c.Get(victim.Key); ok {
					t.Fatal("bad entry served")
				}
				if warned != 1 {
					t.Fatalf("withdrawal warned %d times, want once", warned)
				}
				if c.Len() != len(others) {
					t.Fatalf("catalog holds %d entries after the withdrawal, want %d", c.Len(), len(others))
				}
				for _, k := range others {
					if _, ok := c.Get(k); !ok {
						t.Fatalf("intact entry %v withdrawn", k)
					}
				}
				// What is left is a catalog that lists and packs.
				if _, err := PackBytes(c.List()); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
