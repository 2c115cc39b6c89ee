package catalog

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"probsyn/internal/synopsis"
)

// FuzzOpenFlat feeds arbitrary bytes through the whole flat-catalog
// read path: open, attach, fetch (which decodes the entry's envelope),
// query, and marshal. Truncated or bit-flipped files must produce errors
// or withdrawn entries — never a crash, and never a served entry that
// violates the querier invariants (the codec decoder's Validate is
// exactly what makes the query calls below safe to run on whatever
// survives).
func FuzzOpenFlat(f *testing.F) {
	// Seed with a genuine flat file and targeted damage to it, so the
	// fuzzer starts at the format's interesting surface instead of
	// rediscovering the magic number.
	rng := rand.New(rand.NewSource(41))
	c := New()
	for i := 0; i < 4; i++ {
		var (
			syn synopsis.Synopsis
			fam string
		)
		if i%2 == 0 {
			syn = randHistogram(rng, 8+i)
			fam = FamilyHistogram
		} else {
			syn = randWavelet(rng, 16)
			fam = FamilyWavelet
		}
		key, err := NewKey(fmt.Sprintf("fz%d", i), fam, "SSE", 1+i, 0)
		if err != nil {
			f.Fatal(err)
		}
		if _, _, err := c.Put(key, syn); err != nil {
			f.Fatal(err)
		}
	}
	good, err := PackBytes(c.List())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:flatHeaderLen])
	f.Add(good[:len(good)-32])
	flipped := append([]byte(nil), good...)
	flipped[flatHeaderLen+7] ^= 0x20
	f.Add(flipped)
	shifted := append([]byte(nil), good...)
	dataOff := flatHeaderLen + binary.LittleEndian.Uint64(good[16:])
	shifted[dataOff+20] ^= 0x08
	f.Add(shifted)
	f.Add([]byte(flatMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, FlatName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fl, err := OpenFlat(path)
		if err != nil {
			return // rejection is the expected outcome for damage
		}
		defer fl.Close()
		cat := New()
		cat.AttachFlat(fl, nil)
		for _, k := range fl.Keys() {
			e, ok := cat.Get(k)
			if !ok {
				continue // withdrawn by the deferred decode: correct
			}
			// Whatever Get vouches for must be queryable and
			// codec-roundtrippable without panicking.
			n := e.Synopsis.Domain()
			_ = e.Querier.Estimate(0)
			_ = e.Querier.Estimate(n - 1)
			_ = e.Querier.RangeSum(0, n-1)
			_ = e.Synopsis.Terms()
			_ = e.Synopsis.ErrorCost()
			if _, err := synopsis.Marshal(e.Synopsis); err != nil {
				t.Fatalf("entry %v passed Get but fails to marshal: %v", k, err)
			}
		}
	})
}
