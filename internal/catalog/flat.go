// Flat catalog: one file holding every cataloged synopsis's envelope
// behind a checksummed index, so a replica restart is one open and one
// index read instead of a directory walk that decodes and compiles every
// synopsis before the first query can be answered.
//
// There is one synopsis encoding. The data section is the entries' PSYN
// envelopes (synopsis.Marshal), byte for byte what the key's .psyn file
// holds; the flat file adds only the index that finds them. An entry is
// decoded exactly as a .psyn file is
// (synopsis.Unmarshal, family-vs-key check, query.Compile), but on its
// first Catalog.Get or List instead of at boot: a few microseconds once
// per entry per process, paid by the first request that needs it.
//
// Layout (version 2; integers little-endian, read with encoding/binary,
// so the file opens on any host):
//
//	header    64 bytes:
//	          [0]  magic     "PSYNFLAT" (8 bytes)
//	          [8]  version   u32 (2)
//	          [12] entries   u32
//	          [16] indexLen  u64 (the index starts at byte 64)
//	          [24] fileSize  u64
//	          [32] indexCRC  u32 (IEEE CRC-32 of the index section)
//	          [36] reserved, zero
//	          [60] headerCRC u32 (IEEE CRC-32 of header bytes [0,60))
//	index     one record per entry, tightly packed, in keyLess order:
//	          u32 keyLen | key (the entry's Filename()) |
//	          u64 offset | u64 length
//	data      = envelopes, no padding: the entries' binary envelopes back
//	          to back in index order. The first offset is 64+indexLen,
//	          each next one is the previous offset+length, and the last
//	          envelope ends at fileSize.
//
// Integrity: the header and index checksums and the offset chain are
// validated at open (the index is small). Each envelope carries its own
// payload CRC and is validated by the codec's decoder when the entry is
// first fetched; an entry that fails — a flipped byte, a family its key
// does not name, a file closed or truncated underneath it — is withdrawn
// with a warning and answers not_found rather than serving wrong data,
// and an intact entry pays the decode exactly once.
//
// Invalidation: the flat file is a derived cache of a catalog directory.
// The server removes it BEFORE the first republication (build, sweep,
// mutation) that would make it stale and re-packs in the
// background once the catalog settles, so at boot a flat file that
// exists is never staler than the .psyn files beside it; keys the flat
// file does not cover (an offline psyn wrote into the directory since)
// load through the codec path (BootDir). Being derived is also why there
// is no reader for older versions: an old file is skipped with a warning
// and the next re-pack replaces it.
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"probsyn/internal/query"
	"probsyn/internal/synopsis"
)

// FlatName is the conventional flat catalog filename inside a catalog
// directory — shared by psynd's boot path, its background re-packer,
// and the offline psyn -pack, so they all find each other's output.
const FlatName = "catalog.flat"

// FlatPath returns the flat catalog path for a catalog directory.
func FlatPath(dir string) string { return filepath.Join(dir, FlatName) }

// ErrFlatVersion is the open failure for a flat file written by a newer
// binary: skip it, warn, fall back to the codec path — never guess at a
// format from the future.
var ErrFlatVersion = errors.New("catalog: flat catalog version is newer than this binary supports")

const (
	flatMagic     = "PSYNFLAT"
	flatVersion   = 2
	flatHeaderLen = 64
	// flatRecordFixed is an index record without its key: keyLen, offset,
	// length.
	flatRecordFixed = 4 + 8 + 8
)

// Flat is an open flat catalog: the file plus one entry per index
// record, each decoded from its envelope on first fetch. Close releases
// the file; an entry not yet decoded by then is withdrawn when it is
// fetched (its read fails), so a server keeps the Flat open for the life
// of the process. Decoded entries hold nothing of the file.
type Flat struct {
	fd      *os.File
	entries []*Entry
	// covered is the set of key filenames in the index: the duplicate
	// check at open, and the files BootDir need not codec-load.
	covered map[string]bool
	warnf   func(format string, args ...any)
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

// Close closes the file.
func (f *Flat) Close() error { return f.fd.Close() }

// flatLazy is the deferred decode of a flat-backed entry.
type flatLazy struct {
	f    *Flat
	off  int64 // of the envelope; its length is the entry's Bytes
	once sync.Once
	err  error
}

// decode reads the entry's envelope and fills in its Synopsis and
// Querier, once. Every reader of those fields comes through here first
// (Catalog.Get and List), which is what orders their write before the
// reads.
func (l *flatLazy) decode(e *Entry) error {
	l.once.Do(func() {
		blob := make([]byte, e.Bytes)
		if _, err := l.f.fd.ReadAt(blob, l.off); err != nil {
			l.err = err
			return
		}
		syn, err := decodeEnvelope(e.Key, blob)
		if err != nil {
			l.err = err
			return
		}
		e.Synopsis, e.Querier = syn, query.Compile(syn)
	})
	return l.err
}

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
// must carry its synopsis, which every entry Get or List returned does.
func PackBytes(entries []*Entry) ([]byte, error) {
	sorted := append([]*Entry(nil), entries...)
	sort.Slice(sorted, func(a, b int) bool { return keyLess(sorted[a].Key, sorted[b].Key) })

	names := make([]string, len(sorted))
	blobs := make([][]byte, len(sorted))
	indexLen, dataLen := 0, 0
	for i, e := range sorted {
		blob, err := synopsis.Marshal(e.Synopsis)
		if err != nil {
			return nil, fmt.Errorf("catalog: pack %v: %w", e.Key, err)
		}
		names[i], blobs[i] = e.Key.Filename(), blob
		indexLen += flatRecordFixed + len(names[i])
		dataLen += len(blob)
	}
	dataOff := flatHeaderLen + indexLen
	out := make([]byte, flatHeaderLen, dataOff+dataLen)
	off := dataOff
	for i, blob := range blobs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(names[i])))
		out = append(out, names[i]...)
		out = binary.LittleEndian.AppendUint64(out, uint64(off))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(blob)))
		off += len(blob)
	}
	for _, blob := range blobs {
		out = append(out, blob...)
	}
	h := out[:flatHeaderLen]
	copy(h, flatMagic)
	binary.LittleEndian.PutUint32(h[8:], flatVersion)
	binary.LittleEndian.PutUint32(h[12:], uint32(len(sorted)))
	binary.LittleEndian.PutUint64(h[16:], uint64(indexLen))
	binary.LittleEndian.PutUint64(h[24:], uint64(len(out)))
	binary.LittleEndian.PutUint32(h[32:], crc32.ChecksumIEEE(out[flatHeaderLen:dataOff]))
	binary.LittleEndian.PutUint32(h[60:], crc32.ChecksumIEEE(h[:60]))
	return out, nil
}

// ---- opening ----

// OpenFlat opens a flat catalog file and reads and validates its header
// and index, returning entries ready to attach to a Catalog. The data
// section is not read yet: each entry decodes its own envelope on first
// fetch. A file from a newer format version fails with ErrFlatVersion,
// one from an older version with a plain error; the boot path treats
// both as "use the codec path", not as corruption.
func OpenFlat(path string) (*Flat, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	f := &Flat{fd: fd, covered: make(map[string]bool)}
	if err := f.readIndex(); err != nil {
		fd.Close()
		return nil, err
	}
	return f, nil
}

func (f *Flat) readIndex() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("catalog: flat file %s: %s", f.fd.Name(), fmt.Sprintf(format, args...))
	}
	st, err := f.fd.Stat()
	if err != nil {
		return err
	}
	if st.Size() != int64(int(st.Size())) {
		return bad("%d bytes is more than this host can address", st.Size())
	}
	var h [flatHeaderLen]byte
	if _, err := f.fd.ReadAt(h[:], 0); err != nil {
		return bad("reading the header: %v", err)
	}
	if string(h[:8]) != flatMagic {
		return bad("not a flat catalog (bad magic)")
	}
	// The version is read before the header checksum: another version may
	// checksum another header.
	if v := binary.LittleEndian.Uint32(h[8:]); v > flatVersion {
		return fmt.Errorf("%w: file version %d, binary supports %d", ErrFlatVersion, v, flatVersion)
	} else if v != flatVersion {
		return bad("unsupported version %d (this binary reads %d; the next re-pack replaces the file)", v, flatVersion)
	}
	if binary.LittleEndian.Uint32(h[60:]) != crc32.ChecksumIEEE(h[:60]) {
		return bad("header checksum mismatch")
	}
	count := uint64(binary.LittleEndian.Uint32(h[12:]))
	indexLen := binary.LittleEndian.Uint64(h[16:])
	fileSize := binary.LittleEndian.Uint64(h[24:])
	if fileSize != uint64(st.Size()) {
		return bad("header says %d bytes, file has %d (truncated?)", fileSize, st.Size())
	}
	// Both bounds are against the real file size, so a hostile header
	// cannot size an allocation the file does not back.
	if indexLen > fileSize-flatHeaderLen || count > indexLen/flatRecordFixed {
		return bad("index of %d bytes for %d entries does not fit the file", indexLen, count)
	}
	index := make([]byte, indexLen)
	if _, err := f.fd.ReadAt(index, flatHeaderLen); err != nil {
		return bad("reading the index: %v", err)
	}
	if binary.LittleEndian.Uint32(h[32:]) != crc32.ChecksumIEEE(index) {
		return bad("index checksum mismatch")
	}

	f.entries = make([]*Entry, 0, count)
	next := flatHeaderLen + indexLen // where the next envelope must start
	for i := uint64(0); i < count; i++ {
		if len(index) < flatRecordFixed {
			return bad("truncated index record %d", i)
		}
		keyLen := uint64(binary.LittleEndian.Uint32(index))
		if uint64(len(index)-flatRecordFixed) < keyLen {
			return bad("truncated index record %d", i)
		}
		name := string(index[4 : 4+keyLen])
		off := binary.LittleEndian.Uint64(index[4+keyLen:])
		length := binary.LittleEndian.Uint64(index[12+keyLen:])
		index = index[flatRecordFixed+keyLen:]

		key, err := ParseFilename(name)
		if err != nil {
			return bad("index record %d: %v", i, err)
		}
		if f.covered[name] {
			return bad("duplicate entry %v", key)
		}
		f.covered[name] = true
		if off != next || length > fileSize-off {
			return bad("entry %v: envelope [%d, +%d) breaks the offset chain at %d", key, off, length, next)
		}
		next = off + length
		f.entries = append(f.entries, &Entry{Key: key, Bytes: int(length), lazy: &flatLazy{f: f, off: int64(off)}})
	}
	if len(index) != 0 {
		return bad("%d trailing index bytes", len(index))
	}
	if next != fileSize {
		return bad("envelopes end at byte %d, file at %d", next, fileSize)
	}
	return nil
}

// AttachFlat registers every flat entry in the catalog (replacing any
// existing entries under the same keys) and returns how many were
// attached. warnf, when non-nil, receives a line per entry later found
// corrupt at fetch time (the entry is withdrawn, not served).
func (c *Catalog) AttachFlat(f *Flat, warnf func(format string, args ...any)) int {
	f.warnf = warnf
	c.mu.Lock()
	for _, e := range f.entries {
		c.entries[e.Key] = e
	}
	c.mu.Unlock()
	return len(f.entries)
}

// BootDir is the catalog boot path shared by psynd and tests: if dir
// holds a readable flat catalog, attach it and codec-load only the
// .psyn files it does not cover; otherwise (no flat file, another format
// version, or any validation failure) warn when warranted and codec-load
// everything. The returned Flat is nil when the codec path loaded
// everything; callers keep it open for the life of the catalog.
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
	codecN, err = c.loadDir(dir, f.covered)
	return f, flatN, codecN, err
}
