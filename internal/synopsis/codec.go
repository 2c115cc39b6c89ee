package synopsis

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// The binary envelope (version 1), little-endian throughout:
//
//	magic   [4]byte  "PSYN"
//	version uint8    1
//	namelen uint8    length of the type name
//	name    []byte   codec type name
//	paylen  uint32   payload length in bytes
//	payload []byte   codec-specific body
//	crc     uint32   IEEE CRC-32 of the payload
//
// The checksum makes truncation and bit-rot loud instead of letting a
// mangled synopsis serve wrong estimates.
const binaryVersion = 1

var binaryMagic = [4]byte{'P', 'S', 'Y', 'N'}

// Marshal serializes a synopsis in the versioned binary envelope.
func Marshal(s Synopsis) ([]byte, error) {
	c, err := codecFor(s)
	if err != nil {
		return nil, err
	}
	payload, err := c.encodeBinary(s)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 4+1+1+len(c.name)+4+len(payload)+4)
	buf = append(buf, binaryMagic[:]...)
	buf = append(buf, binaryVersion, byte(len(c.name)))
	buf = append(buf, c.name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return buf, nil
}

// Unmarshal deserializes a synopsis from the binary envelope; anything
// that does not start with the "PSYN" magic is an error.
func Unmarshal(data []byte) (Synopsis, error) {
	if len(data) < 4 || !bytes.Equal(data[:4], binaryMagic[:]) {
		return nil, fmt.Errorf("synopsis: not a synopsis envelope (want %q magic)", binaryMagic)
	}
	if len(data) < 6 {
		return nil, fmt.Errorf("synopsis: truncated header (%d bytes)", len(data))
	}
	if data[4] != binaryVersion {
		return nil, fmt.Errorf("synopsis: unsupported binary version %d (have %d)", data[4], binaryVersion)
	}
	nameLen := int(data[5])
	rest := data[6:]
	if len(rest) < nameLen+4 {
		return nil, fmt.Errorf("synopsis: truncated type name")
	}
	name := string(rest[:nameLen])
	rest = rest[nameLen:]
	payLen := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if len(rest) < payLen+4 {
		return nil, fmt.Errorf("synopsis: truncated payload (want %d bytes, have %d)", payLen+4, len(rest))
	}
	payload := rest[:payLen]
	want := binary.LittleEndian.Uint32(rest[payLen:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("synopsis: payload checksum mismatch (corrupt input)")
	}
	c, err := codecByName(name)
	if err != nil {
		return nil, err
	}
	return c.decodeBinary(payload)
}

// binWriter accumulates the fixed-width little-endian primitives the
// family payloads are built from.
type binWriter struct{ buf []byte }

func (w *binWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *binWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// binReader is the matching cursor; the first failed read poisons it so
// payload decoders can check err once at the end.
type binReader struct {
	buf []byte
	err error
}

func (r *binReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 4 {
		r.err = fmt.Errorf("synopsis: truncated payload")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *binReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = fmt.Errorf("synopsis: truncated payload")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

func (r *binReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("synopsis: %d trailing payload bytes", len(r.buf))
	}
	return nil
}
