// Flat catalog: a single mmap-friendly file holding every compiled
// querier's arrays, so a replica restart is an open + header validation
// instead of decoding and recompiling every synopsis.
//
// The codec path (.psyn envelope files) stores synopses; serving them
// requires decoding each envelope and compiling a querier per entry —
// work that scales with catalog size and stands between a rebooted
// replica and its first answered query. The flat format stores what the
// compile step produces: the histogram start/end/rep/prefix arrays and
// the wavelet coefficient/index/position tables, page-aligned and
// little-endian, exactly as the queriers hold them in memory. OpenFlat
// maps the file, validates the fixed-offset header and the index
// section, and builds queriers whose slices alias the mapping —
// answers are bit-identical to compiled queriers because they ARE the
// compiled querier types over the same float64 bits.
//
// Layout (version 1, little-endian, fixed 4096-byte pages):
//
//	page 0    header, 64 bytes used, zero-padded to the page:
//	          [0]  magic   "PSYNFLAT" (8 bytes)
//	          [8]  version u32 (1)
//	          [12] probe   u32 (0x01020304; corruption tripwire)
//	          [16] page    u32 (4096)
//	          [20] entries u32
//	          [24] indexOff u64 (4096)
//	          [32] indexLen u64
//	          [40] dataOff  u64 (indexOff+indexLen rounded up to a page)
//	          [48] fileSize u64
//	          [56] indexCRC u32 (IEEE CRC-32 of the index section)
//	          [60] headerCRC u32 (IEEE CRC-32 of header bytes [0,60))
//	index     one variable-length record per entry, tightly packed:
//	          u32 keyLen | key (the entry's Filename() encoding) |
//	          u32 family (0 histogram, 1 wavelet) | u64 n | u64 terms |
//	          f64 errorCost | u64 envelopeBytes | u64 blockOff |
//	          u64 blockLen | u32 blockCRC |
//	          wavelet only: u32 hasRoot | f64 root
//	data      per-entry blocks, each starting on a page boundary,
//	          arrays 8-byte aligned, ascending blockOff:
//	          histogram (B = terms): starts i64[B] | ends i64[B] |
//	            reps f64[B] | costs f64[B] | prefix f64[B]
//	          wavelet (D = terms - hasRoot): indices i64[D] |
//	            values f64[D] | pos i32[n] zero-padded to 8 bytes
//	            (present exactly when n <= query.WaveletDenseLimit)
//
// Alignment and endianness contract: the file is little-endian and its
// integer arrays are 64-bit, viewed in place via unsafe slice casts —
// OpenFlat therefore requires a 64-bit little-endian host (every other
// platform gets ErrFlatUnsupported and the caller falls back to the
// codec path). Page-aligned blocks on a page-aligned mapping make every
// array naturally aligned.
//
// Integrity: the header and index checksums are validated at open (the
// index is small); each entry's data block carries its own CRC,
// validated lazily the first time the entry is fetched from the catalog
// (Catalog.Get), together with shape invariants (bucket partition
// contiguity, coefficient index order, position-table consistency) —
// a corrupt entry is withdrawn and answers not_found rather than
// serving wrong data, and an intact entry pays the check exactly once.
//
// Invalidation: the flat file is a snapshot of a catalog directory. The
// server removes it BEFORE the first republication (build, sweep,
// mutation, accepted piece) that would make it stale and re-packs in
// the background once the catalog settles, so at boot a flat file that
// exists is never staler than the .psyn files beside it; keys the flat
// file does not cover load through the codec path (BootDir).
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"probsyn/internal/hist"
	"probsyn/internal/query"
	"probsyn/internal/synopsis"
	"probsyn/internal/wavelet"
)

// FlatName is the conventional flat catalog filename inside a catalog
// directory — shared by psynd's boot path, its background re-packer,
// and the offline psyn -pack, so they all find each other's output.
const FlatName = "catalog.flat"

// FlatPath returns the flat catalog path for a catalog directory.
func FlatPath(dir string) string { return filepath.Join(dir, FlatName) }

// Typed open failures the boot path distinguishes: a flat file written
// by a newer binary (skip it, warn, fall back to the codec path — never
// guess at a format from the future) and a host this format cannot be
// mapped on (32-bit or big-endian; same fallback).
var (
	ErrFlatVersion     = errors.New("catalog: flat catalog version is newer than this binary supports")
	ErrFlatUnsupported = errors.New("catalog: flat catalogs require a 64-bit little-endian host")
)

const (
	flatMagic     = "PSYNFLAT"
	flatVersion   = 1
	flatProbe     = 0x01020304
	flatPage      = 4096
	flatHeaderLen = 64

	flatFamilyHistogram = 0
	flatFamilyWavelet   = 1

	// Hard caps keeping a corrupt or hostile index from driving huge
	// allocations before its CRC-passing-but-nonsensical content is
	// rejected field by field.
	maxFlatEntries = 1 << 20
	maxFlatKeyLen  = 1 << 10
	maxFlatDomain  = 1 << 32
)

// hostFlatCapable reports whether this process can view flat files in
// place: int64 arrays are cast to []int and float64 arrays are read
// through native byte order, so the host must be 64-bit little-endian.
func hostFlatCapable() bool {
	probe := []byte{0x34, 0x12}
	return strconv.IntSize == 64 && binary.NativeEndian.Uint16(probe) == 0x1234
}

// flatRec is one parsed index record.
type flatRec struct {
	key      Key
	name     string // the key's Filename(), as the index recorded it
	family   uint32
	n        int
	terms    int
	cost     float64
	envBytes int
	blockOff uint64
	blockLen uint64
	blockCRC uint32
	hasRoot  bool
	root     float64
}

// Flat is an open flat catalog: the mapping plus one ready-to-attach
// entry per index record. Entries hold slices aliasing the mapping, so
// Close must not be called while any attached entry may still be
// queried; a server keeps the mapping for the life of the process.
type Flat struct {
	path    string
	data    []byte
	unmap   func() error
	entries []*Entry

	closeOnce sync.Once
	closeErr  error
}

// Len returns the number of entries in the flat catalog.
func (f *Flat) Len() int { return len(f.entries) }

// Keys returns the entry keys in file order (which Pack makes the
// catalog's sorted key order).
func (f *Flat) Keys() []Key {
	out := make([]Key, len(f.entries))
	for i, e := range f.entries {
		out[i] = e.Key
	}
	return out
}

// Close unmaps the file. Every querier the flat catalog produced
// aliases the mapping — Close only after the attached entries are
// unreachable (tests; a serving process simply never closes).
func (f *Flat) Close() error {
	f.closeOnce.Do(func() {
		if f.unmap != nil {
			f.closeErr = f.unmap()
		}
	})
	return f.closeErr
}

// flatLazy is the deferred per-entry work of a flat-backed entry: the
// data-block CRC and shape validation on first catalog fetch, and the
// concrete synopsis materialization on first codec use. Both memoize.
type flatLazy struct {
	f     *Flat
	rec   flatRec
	warnf func(format string, args ...any)

	once sync.Once
	err  error

	matOnce sync.Once
	mat     synopsis.Synopsis
	matErr  error
}

// ensure validates the entry's data block once: CRC first (bit flips
// and truncation are loud), then the shape invariants the queriers'
// query-time arithmetic relies on to stay crash-free.
func (l *flatLazy) ensure() error {
	l.once.Do(func() {
		block := l.f.data[l.rec.blockOff : l.rec.blockOff+l.rec.blockLen]
		if got := crc32.ChecksumIEEE(block); got != l.rec.blockCRC {
			l.err = fmt.Errorf("catalog: flat entry %v: data checksum mismatch (corrupt block)", l.rec.key)
			return
		}
		l.err = l.validateShape()
	})
	return l.err
}

// validateShape checks the invariants that make the viewed arrays safe
// and meaningful to query — the same invariants the codec decoders
// enforce via Validate on the concrete types.
func (l *flatLazy) validateShape() error {
	rec := &l.rec
	switch rec.family {
	case flatFamilyHistogram:
		starts, ends, _, _, _ := l.f.histViews(rec)
		if starts[0] != 0 {
			return fmt.Errorf("catalog: flat entry %v: first bucket starts at %d, want 0", rec.key, starts[0])
		}
		for k := range starts {
			if starts[k] > ends[k] {
				return fmt.Errorf("catalog: flat entry %v: bucket %d start %d > end %d", rec.key, k, starts[k], ends[k])
			}
			if k > 0 && starts[k] != ends[k-1]+1 {
				return fmt.Errorf("catalog: flat entry %v: bucket %d starts at %d, want %d", rec.key, k, starts[k], ends[k-1]+1)
			}
		}
		if last := ends[len(ends)-1]; last != rec.n-1 {
			return fmt.Errorf("catalog: flat entry %v: last bucket ends at %d, want %d", rec.key, last, rec.n-1)
		}
	case flatFamilyWavelet:
		indices, _, pos := l.f.waveletViews(rec)
		for k, idx := range indices {
			// Detail coefficients only: the root (index 0) lives in the
			// index record, so every stored index is in [1, n).
			if idx < 1 || idx >= rec.n {
				return fmt.Errorf("catalog: flat entry %v: coefficient index %d outside [1, %d)", rec.key, idx, rec.n)
			}
			if k > 0 && idx <= indices[k-1] {
				return fmt.Errorf("catalog: flat entry %v: coefficient indices not strictly ascending at %d", rec.key, k)
			}
		}
		if pos != nil {
			// The dense table must be exactly the inverse of the index
			// list: wrong positions would serve other coefficients'
			// values (or crash); checked once, O(n).
			for i, p := range pos {
				if p == -1 {
					continue
				}
				if int(p) < 0 || int(p) >= len(indices) || indices[p] != i {
					return fmt.Errorf("catalog: flat entry %v: position table disagrees with indices at %d", rec.key, i)
				}
			}
			for k, idx := range indices {
				if pos[idx] != int32(k) {
					return fmt.Errorf("catalog: flat entry %v: position table misses index %d", rec.key, idx)
				}
			}
		}
	}
	return nil
}

// flatSyn is the synopsis facade of a flat-backed entry: metadata from
// the index record, queries through the view querier (bit-identical to
// the concrete synopsis's methods by the compiled-path property), and
// Underlying materializing the concrete synopsis for the codec.
type flatSyn struct {
	q     query.Querier
	terms int
	cost  float64
	lazy  *flatLazy
}

func (s *flatSyn) Estimate(i int) float64      { return s.q.Estimate(i) }
func (s *flatSyn) RangeSum(lo, hi int) float64 { return s.q.RangeSum(lo, hi) }
func (s *flatSyn) Terms() int                  { return s.terms }
func (s *flatSyn) ErrorCost() float64          { return s.cost }
func (s *flatSyn) Domain() int                 { return s.q.Domain() }
func (s *flatSyn) Underlying() (synopsis.Synopsis, error) {
	l := s.lazy
	l.matOnce.Do(func() {
		if err := l.ensure(); err != nil {
			l.matErr = err
			return
		}
		l.mat, l.matErr = l.f.materialize(&l.rec)
	})
	return l.mat, l.matErr
}

// materialize copies a validated entry's arrays into the concrete
// synopsis type, so the codec (and anything else wanting the real
// struct) sees exactly what decoding the entry's .psyn envelope yields.
func (f *Flat) materialize(rec *flatRec) (synopsis.Synopsis, error) {
	switch rec.family {
	case flatFamilyHistogram:
		starts, ends, reps, costs, _ := f.histViews(rec)
		h := &hist.Histogram{N: rec.n, Cost: rec.cost, Buckets: make([]hist.Bucket, len(starts))}
		for k := range h.Buckets {
			h.Buckets[k] = hist.Bucket{Start: starts[k], End: ends[k], Rep: reps[k], Cost: costs[k]}
		}
		if err := h.Validate(); err != nil {
			return nil, fmt.Errorf("catalog: flat entry %v: %w", rec.key, err)
		}
		return h, nil
	case flatFamilyWavelet:
		indices, values, _ := f.waveletViews(rec)
		s := &wavelet.Synopsis{N: rec.n, Cost: rec.cost}
		s.Indices = make([]int, 0, rec.terms)
		s.Values = make([]float64, 0, rec.terms)
		if rec.hasRoot {
			// Index 0 sorts first, so prepending the root keeps the
			// ascending order the synopsis type requires.
			s.Indices = append(s.Indices, 0)
			s.Values = append(s.Values, rec.root)
		}
		s.Indices = append(s.Indices, indices...)
		s.Values = append(s.Values, values...)
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("catalog: flat entry %v: %w", rec.key, err)
		}
		return s, nil
	}
	return nil, fmt.Errorf("catalog: flat entry %v: unknown family %d", rec.key, rec.family)
}

// histViews returns the five histogram arrays viewed in place.
func (f *Flat) histViews(rec *flatRec) (starts, ends []int, reps, costs, prefix []float64) {
	b := uint64(rec.terms)
	off := rec.blockOff
	starts = viewInts(f.data, off, b)
	ends = viewInts(f.data, off+8*b, b)
	reps = viewF64s(f.data, off+16*b, b)
	costs = viewF64s(f.data, off+24*b, b)
	prefix = viewF64s(f.data, off+32*b, b)
	return
}

// waveletViews returns the detail coefficient arrays (and the dense
// position table when the domain carries one) viewed in place.
func (f *Flat) waveletViews(rec *flatRec) (indices []int, values []float64, pos []int32) {
	d := uint64(rec.terms)
	if rec.hasRoot {
		d--
	}
	off := rec.blockOff
	indices = viewInts(f.data, off, d)
	values = viewF64s(f.data, off+8*d, d)
	if rec.n <= query.WaveletDenseLimit {
		pos = viewI32s(f.data, off+16*d, uint64(rec.n))
	}
	return
}

// histBlockLen and waveletBlockLen are the data-block sizes the layout
// prescribes; OpenFlat rejects records whose recorded length disagrees.
func histBlockLen(b uint64) uint64 { return 40 * b }

func waveletBlockLen(details, n uint64) uint64 {
	l := 16 * details
	if n <= query.WaveletDenseLimit {
		l += align8(4 * n)
	}
	return l
}

func align8(v uint64) uint64    { return (v + 7) &^ 7 }
func alignPage(v uint64) uint64 { return (v + flatPage - 1) &^ (flatPage - 1) }

// ---- packing ----

// Pack serializes the entries into the flat catalog format and writes
// the file atomically (temp + rename). Entries are sorted by key first,
// so packing the same logical catalog produces byte-identical files
// wherever it runs — the server's background re-pack and the offline
// psyn -pack are interchangeable. It returns the number of entries
// packed.
func Pack(path string, entries []*Entry) (int, error) {
	data, err := PackBytes(entries)
	if err != nil {
		return 0, err
	}
	if err := WriteBlob(path, data); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// PackBytes serializes the entries into flat catalog bytes. Every entry
// must carry a compiled querier of a known family (which every catalog
// entry does — flat-backed entries included, since their view queriers
// are the same types).
func PackBytes(entries []*Entry) ([]byte, error) {
	sorted := append([]*Entry(nil), entries...)
	sort.Slice(sorted, func(a, b int) bool { return keyLess(sorted[a].Key, sorted[b].Key) })

	type packed struct {
		index []byte // record bytes, blockOff patched in pass 2
		block []byte
	}
	var (
		packs    []packed
		indexLen uint64
	)
	for _, e := range sorted {
		p, err := packEntry(e)
		if err != nil {
			return nil, err
		}
		packs = append(packs, p)
		indexLen += uint64(len(p.index))
	}
	dataOff := alignPage(flatPage + indexLen)

	// Assign page-aligned block offsets, then patch each record's
	// blockOff field (it was left zero at a fixed position from the
	// record's end — see packEntry).
	off := dataOff
	var fileSize uint64 = dataOff
	for i := range packs {
		p := &packs[i]
		patchBlockOff(p.index, off)
		end := off + uint64(len(p.block))
		fileSize = alignPage(end)
		off = fileSize
	}
	out := make([]byte, fileSize)
	// Index section.
	cursor := uint64(flatPage)
	for _, p := range packs {
		copy(out[cursor:], p.index)
		cursor += uint64(len(p.index))
	}
	indexCRC := crc32.ChecksumIEEE(out[flatPage : flatPage+indexLen])
	// Data blocks (offsets recorded in the patched records).
	off = dataOff
	for i := range packs {
		copy(out[off:], packs[i].block)
		off = alignPage(off + uint64(len(packs[i].block)))
	}
	// Header.
	h := out[:flatHeaderLen]
	copy(h[0:8], flatMagic)
	binary.LittleEndian.PutUint32(h[8:], flatVersion)
	binary.LittleEndian.PutUint32(h[12:], flatProbe)
	binary.LittleEndian.PutUint32(h[16:], flatPage)
	binary.LittleEndian.PutUint32(h[20:], uint32(len(packs)))
	binary.LittleEndian.PutUint64(h[24:], flatPage)
	binary.LittleEndian.PutUint64(h[32:], indexLen)
	binary.LittleEndian.PutUint64(h[40:], dataOff)
	binary.LittleEndian.PutUint64(h[48:], fileSize)
	binary.LittleEndian.PutUint32(h[56:], indexCRC)
	binary.LittleEndian.PutUint32(h[60:], crc32.ChecksumIEEE(h[:60]))
	return out, nil
}

// packEntry serializes one entry's index record (blockOff zeroed, to be
// patched once the layout is known) and data block.
func packEntry(e *Entry) (struct {
	index []byte
	block []byte
}, error) {
	var out struct {
		index []byte
		block []byte
	}
	syn, err := synopsis.Resolve(e.Synopsis)
	if err != nil {
		return out, fmt.Errorf("catalog: pack %v: %w", e.Key, err)
	}
	var (
		family  uint32
		n       int
		terms   int
		cost    float64
		hasRoot bool
		root    float64
		block   []byte
	)
	switch q := e.Querier.(type) {
	case *query.HistogramQuerier:
		h, ok := syn.(*hist.Histogram)
		if !ok {
			return out, fmt.Errorf("catalog: pack %v: histogram querier over %T synopsis", e.Key, syn)
		}
		var starts, ends []int
		var reps, prefix []float64
		n, starts, ends, reps, prefix = q.Arrays()
		if n != h.N || len(starts) != len(h.Buckets) {
			return out, fmt.Errorf("catalog: pack %v: querier and synopsis disagree", e.Key)
		}
		family, terms, cost = flatFamilyHistogram, len(starts), h.Cost
		block = make([]byte, 0, histBlockLen(uint64(terms)))
		for _, v := range starts {
			block = binary.LittleEndian.AppendUint64(block, uint64(v))
		}
		for _, v := range ends {
			block = binary.LittleEndian.AppendUint64(block, uint64(v))
		}
		block = appendF64s(block, reps)
		for _, b := range h.Buckets {
			block = binary.LittleEndian.AppendUint64(block, math.Float64bits(b.Cost))
		}
		block = appendF64s(block, prefix)
	case *query.WaveletQuerier:
		w, ok := syn.(*wavelet.Synopsis)
		if !ok {
			return out, fmt.Errorf("catalog: pack %v: wavelet querier over %T synopsis", e.Key, syn)
		}
		var indices []int
		var values []float64
		var pos []int32
		n, root, hasRoot, indices, values, pos = q.Arrays()
		details := len(indices)
		terms = details
		if hasRoot {
			terms++
		}
		if n != w.N || terms != len(w.Indices) {
			return out, fmt.Errorf("catalog: pack %v: querier and synopsis disagree", e.Key)
		}
		family, cost = flatFamilyWavelet, w.Cost
		block = make([]byte, 0, waveletBlockLen(uint64(details), uint64(n)))
		for _, v := range indices {
			block = binary.LittleEndian.AppendUint64(block, uint64(v))
		}
		block = appendF64s(block, values)
		if n <= query.WaveletDenseLimit {
			if len(pos) != n {
				return out, fmt.Errorf("catalog: pack %v: querier has no dense position table", e.Key)
			}
			for _, p := range pos {
				block = binary.LittleEndian.AppendUint32(block, uint32(p))
			}
			for pad := align8(4*uint64(n)) - 4*uint64(n); pad > 0; pad-- {
				block = append(block, 0)
			}
		}
	default:
		return out, fmt.Errorf("catalog: pack %v: unpackable querier %T", e.Key, e.Querier)
	}
	key := e.Key.Filename()
	if len(key) > maxFlatKeyLen {
		return out, fmt.Errorf("catalog: pack %v: key filename longer than %d", e.Key, maxFlatKeyLen)
	}

	idx := make([]byte, 0, 72+len(key))
	idx = binary.LittleEndian.AppendUint32(idx, uint32(len(key)))
	idx = append(idx, key...)
	idx = binary.LittleEndian.AppendUint32(idx, family)
	idx = binary.LittleEndian.AppendUint64(idx, uint64(n))
	idx = binary.LittleEndian.AppendUint64(idx, uint64(terms))
	idx = binary.LittleEndian.AppendUint64(idx, math.Float64bits(cost))
	idx = binary.LittleEndian.AppendUint64(idx, uint64(e.Bytes))
	idx = binary.LittleEndian.AppendUint64(idx, 0) // blockOff, patched later
	idx = binary.LittleEndian.AppendUint64(idx, uint64(len(block)))
	idx = binary.LittleEndian.AppendUint32(idx, crc32.ChecksumIEEE(block))
	if family == flatFamilyWavelet {
		hr := uint32(0)
		if hasRoot {
			hr = 1
		}
		idx = binary.LittleEndian.AppendUint32(idx, hr)
		idx = binary.LittleEndian.AppendUint64(idx, math.Float64bits(root))
	}
	out.index, out.block = idx, block
	return out, nil
}

// blockOff sits at a fixed distance from the record's END (the tail
// fields after it are fixed-width per family), so the patcher need not
// re-parse the variable-length head.
func blockOffTailOffset(index []byte) int {
	// tail after blockOff: u64 blockLen + u32 blockCRC [+ u32 hasRoot + f64 root]
	family := binary.LittleEndian.Uint32(index[4+binary.LittleEndian.Uint32(index):])
	tail := 8 + 4
	if family == flatFamilyWavelet {
		tail += 4 + 8
	}
	return len(index) - tail - 8
}

func patchBlockOff(index []byte, off uint64) {
	binary.LittleEndian.PutUint64(index[blockOffTailOffset(index):], off)
}

func appendF64s(b []byte, vs []float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// ---- opening ----

// OpenFlat maps a flat catalog file and parses and validates its header
// and index, returning entries ready to attach to a Catalog. The data
// section is not read yet: each entry validates its own block (CRC and
// shape) on first fetch. Files from a newer format version fail with
// ErrFlatVersion; hosts that cannot view the format fail with
// ErrFlatUnsupported — both errors the boot path treats as "use the
// codec path", not as corruption.
func OpenFlat(path string) (*Flat, error) {
	if !hostFlatCapable() {
		return nil, ErrFlatUnsupported
	}
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	st, err := fd.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < flatPage {
		return nil, fmt.Errorf("catalog: flat file %s: %d bytes, shorter than one page", path, size)
	}
	data, unmap, err := mapFile(fd, size)
	if err != nil {
		return nil, fmt.Errorf("catalog: flat file %s: %w", path, err)
	}
	if err := checkViewable(data); err != nil {
		unmap()
		return nil, fmt.Errorf("catalog: flat file %s: %w", path, err)
	}
	f := &Flat{path: path, data: data, unmap: unmap}
	if err := f.parse(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (f *Flat) parse() error {
	data := f.data
	if len(data) >= 8 && string(data[:8]) != flatMagic {
		return fmt.Errorf("catalog: %s is not a flat catalog (bad magic)", f.path)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != flatVersion {
		if v > flatVersion {
			return fmt.Errorf("%w: file version %d, binary supports %d", ErrFlatVersion, v, flatVersion)
		}
		return fmt.Errorf("catalog: flat file %s: unsupported version %d", f.path, v)
	}
	if got := binary.LittleEndian.Uint32(data[60:]); got != crc32.ChecksumIEEE(data[:60]) {
		return fmt.Errorf("catalog: flat file %s: header checksum mismatch", f.path)
	}
	if p := binary.LittleEndian.Uint32(data[12:]); p != flatProbe {
		return fmt.Errorf("catalog: flat file %s: bad endianness probe %#x", f.path, p)
	}
	if p := binary.LittleEndian.Uint32(data[16:]); p != flatPage {
		return fmt.Errorf("catalog: flat file %s: page size %d, want %d", f.path, p, flatPage)
	}
	count := binary.LittleEndian.Uint32(data[20:])
	indexOff := binary.LittleEndian.Uint64(data[24:])
	indexLen := binary.LittleEndian.Uint64(data[32:])
	dataOff := binary.LittleEndian.Uint64(data[40:])
	fileSize := binary.LittleEndian.Uint64(data[48:])
	if count > maxFlatEntries {
		return fmt.Errorf("catalog: flat file %s: %d entries exceeds the %d cap", f.path, count, maxFlatEntries)
	}
	if fileSize != uint64(len(data)) {
		return fmt.Errorf("catalog: flat file %s: header says %d bytes, file has %d (truncated?)", f.path, fileSize, len(data))
	}
	if indexOff != flatPage || indexLen > fileSize-indexOff || dataOff != alignPage(indexOff+indexLen) || dataOff > fileSize {
		return fmt.Errorf("catalog: flat file %s: inconsistent section offsets", f.path)
	}
	index := data[indexOff : indexOff+indexLen]
	if got := binary.LittleEndian.Uint32(data[56:]); got != crc32.ChecksumIEEE(index) {
		return fmt.Errorf("catalog: flat file %s: index checksum mismatch", f.path)
	}

	seen := make(map[Key]bool, count)
	r := flatReader{buf: index}
	nextBlock := dataOff
	for i := uint32(0); i < count; i++ {
		rec, err := f.parseRecord(&r, seen, nextBlock, fileSize)
		if err != nil {
			return err
		}
		nextBlock = alignPage(rec.blockOff + rec.blockLen)
		entry, err := f.buildEntry(rec)
		if err != nil {
			return err
		}
		f.entries = append(f.entries, entry)
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("catalog: flat file %s: %d trailing index bytes", f.path, len(r.buf))
	}
	return nil
}

// parseRecord reads and validates one index record. Blocks must appear
// in file order, page-aligned, non-overlapping, inside the data section.
func (f *Flat) parseRecord(r *flatReader, seen map[Key]bool, minBlock, fileSize uint64) (flatRec, error) {
	var rec flatRec
	bad := func(format string, args ...any) (flatRec, error) {
		return rec, fmt.Errorf("catalog: flat file %s: %s", f.path, fmt.Sprintf(format, args...))
	}
	keyLen := r.u32()
	if r.err == nil && keyLen > maxFlatKeyLen {
		return bad("index key length %d exceeds the %d cap", keyLen, maxFlatKeyLen)
	}
	keyBytes := r.bytes(int(keyLen))
	rec.family = r.u32()
	n := r.u64()
	terms := r.u64()
	rec.cost = r.f64()
	env := r.u64()
	rec.blockOff = r.u64()
	rec.blockLen = r.u64()
	rec.blockCRC = r.u32()
	if r.err == nil && rec.family == flatFamilyWavelet {
		rec.hasRoot = r.u32() != 0
		rec.root = r.f64()
	}
	if r.err != nil {
		return bad("truncated index record: %v", r.err)
	}
	name := string(keyBytes)
	key, err := ParseFilename(name)
	if err != nil {
		return bad("index record key: %v", err)
	}
	if seen[key] {
		return bad("duplicate entry %v", key)
	}
	seen[key] = true
	rec.key, rec.name = key, name
	if n < 1 || n > maxFlatDomain || terms > n || env > fileSize {
		return bad("entry %v: implausible dimensions (n=%d terms=%d)", key, n, terms)
	}
	rec.n, rec.terms, rec.envBytes = int(n), int(terms), int(env)
	var wantLen uint64
	switch rec.family {
	case flatFamilyHistogram:
		if key.Family != FamilyHistogram {
			return bad("entry %v: family code %d disagrees with key", key, rec.family)
		}
		if terms < 1 {
			return bad("entry %v: histogram with no buckets", key)
		}
		wantLen = histBlockLen(terms)
	case flatFamilyWavelet:
		if key.Family != FamilyWavelet {
			return bad("entry %v: family code %d disagrees with key", key, rec.family)
		}
		if n&(n-1) != 0 {
			return bad("entry %v: wavelet domain %d not a power of two", key, n)
		}
		if rec.hasRoot && terms < 1 {
			return bad("entry %v: root recorded but zero terms", key)
		}
		details := terms
		if rec.hasRoot {
			details--
		}
		wantLen = waveletBlockLen(details, n)
	default:
		return bad("entry %v: unknown family code %d", key, rec.family)
	}
	if rec.blockLen != wantLen {
		return bad("entry %v: block length %d, layout prescribes %d", key, rec.blockLen, wantLen)
	}
	if rec.blockOff%flatPage != 0 || rec.blockOff < minBlock || rec.blockOff > fileSize || rec.blockLen > fileSize-rec.blockOff {
		return bad("entry %v: block [%d, +%d) outside the data section", key, rec.blockOff, rec.blockLen)
	}
	return rec, nil
}

// buildEntry constructs the catalog entry for a parsed record: the view
// querier over the mapped arrays (shape-safe by the offset checks; the
// content checks run lazily in ensure) and the synopsis facade.
func (f *Flat) buildEntry(rec flatRec) (*Entry, error) {
	lazy := &flatLazy{f: f, rec: rec}
	var q query.Querier
	var err error
	switch rec.family {
	case flatFamilyHistogram:
		starts, ends, reps, _, prefix := f.histViews(&lazy.rec)
		q, err = query.NewHistogramView(rec.n, starts, ends, reps, prefix)
	case flatFamilyWavelet:
		indices, values, pos := f.waveletViews(&lazy.rec)
		q, err = query.NewWaveletView(rec.n, rec.root, rec.hasRoot, indices, values, pos)
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: flat file %s: entry %v: %w", f.path, rec.key, err)
	}
	syn := &flatSyn{q: q, terms: rec.terms, cost: rec.cost, lazy: lazy}
	return &Entry{Key: rec.key, Synopsis: syn, Bytes: rec.envBytes, Querier: q, lazy: lazy}, nil
}

// AttachFlat registers every flat entry in the catalog (replacing any
// existing entries under the same keys) and returns how many were
// attached. warnf, when non-nil, receives a line per entry later found
// corrupt at fetch time (the entry is withdrawn, not served).
func (c *Catalog) AttachFlat(f *Flat, warnf func(format string, args ...any)) int {
	c.mu.Lock()
	for _, e := range f.entries {
		e.lazy.warnf = warnf
		c.entries[e.Key] = e
	}
	c.mu.Unlock()
	return len(f.entries)
}

// BootDir is the catalog boot path shared by psynd and tests: if dir
// holds a readable flat catalog, attach it and codec-load only the
// .psyn files it does not cover; otherwise (no flat file, a newer
// format version, an unsupported host, or any validation failure) warn
// when warranted and codec-load everything. The returned Flat is nil
// when the codec path loaded everything; callers keep it open for the
// life of the catalog.
func BootDir(c *Catalog, dir string, warnf func(format string, args ...any)) (f *Flat, flatN, codecN int, err error) {
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	path := FlatPath(dir)
	f, ferr := OpenFlat(path)
	if ferr != nil {
		if !os.IsNotExist(ferr) {
			warnf("flat catalog %s unusable (%v); falling back to .psyn decode", path, ferr)
		}
		n, err := c.LoadDir(dir)
		return nil, 0, n, err
	}
	flatN = c.AttachFlat(f, warnf)
	covered := make(map[string]bool, flatN)
	for _, e := range f.entries {
		covered[e.lazy.rec.name] = true
	}
	codecN, err = c.LoadDirFunc(dir, func(name string) bool { return covered[name] })
	if err != nil {
		return f, flatN, codecN, err
	}
	return f, flatN, codecN, nil
}

// flatReader is a bounds-checked little-endian cursor over the index
// section (same poisoning discipline as the codec's binReader).
type flatReader struct {
	buf []byte
	err error
}

func (r *flatReader) u32() uint32 {
	if r.err == nil && len(r.buf) < 4 {
		r.err = fmt.Errorf("truncated")
	}
	if r.err != nil {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *flatReader) u64() uint64 {
	if r.err == nil && len(r.buf) < 8 {
		r.err = fmt.Errorf("truncated")
	}
	if r.err != nil {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *flatReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *flatReader) bytes(n int) []byte {
	if r.err == nil && (n < 0 || len(r.buf) < n) {
		r.err = fmt.Errorf("truncated")
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}
