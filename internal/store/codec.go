// Package store is the persistence subsystem of the assessment service:
// a versioned binary snapshot codec for warm corpus state
// (core.PersistedState), an append-only checksummed delta journal
// (write-ahead log), and a data-directory manager tying the two into
// crash-safe recovery — load the snapshot, replay the journal, tolerate
// a torn tail — with size/count-triggered compaction back into a fresh
// snapshot.
//
// Crash-consistency invariants (see DESIGN.md "Persistence & recovery"):
//
//   - a journal record is fsync'd before the in-memory commit it
//     describes (write-ahead), so every acknowledged delta is on disk;
//   - snapshots are written to a temp file, fsync'd, and atomically
//     renamed, so a crash mid-snapshot leaves the previous one intact;
//   - the journal is truncated only after the snapshot rename, and
//     records are stamped with the snapshot generation they apply to,
//     so records surviving a failed truncation are skipped on replay
//     instead of applying to state they do not describe;
//   - a torn final record (crash mid-append) is detected by length or
//     CRC and dropped; the journal is truncated to the last good record
//     before further appends.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// errCorrupt is wrapped by every decoder-detected inconsistency.
var errCorrupt = errors.New("corrupt data")

// enc is a little append-only byte buffer with the primitive encoders
// the snapshot and journal formats share. All integers are unsigned
// varints; signed values the formats need are non-negative by
// construction and encoded as their uint64 image.
type enc struct {
	buf []byte
}

func (e *enc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) u32(v uint32)     { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) int(v int)        { e.uvarint(uint64(v)) }
func (e *enc) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *enc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}
func (e *enc) string(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *enc) strings(ss []string) {
	e.int(len(ss))
	for _, s := range ss {
		e.string(s)
	}
}

// uvarintLen is the length of v's uvarint encoding; stringLen that of
// an encoded string.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
func stringLen(s string) int  { return uvarintLen(uint64(len(s))) + len(s) }

// dec is the matching sticky-error reader: after the first error every
// accessor returns the zero value, and the caller checks err once.
//
// dec reads from a string, not a []byte: string() then returns a
// zero-copy substring of the input. Snapshot decode exploits this by
// holding the whole snapshot as one string (a boot reads the file
// straight into it) — every decoded path,
// source, and message is a view into that one buffer instead of its
// own allocation, which is most of what snapshot decode used to do.
// The trade-off is pinning: decoded state keeps the whole snapshot
// buffer alive, which is fine for the assessor (the sources it pins
// are the bulk of the buffer and resident anyway).
type dec struct {
	buf string
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", errCorrupt, what, d.off)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	// binary.Uvarint over a string, inlined (the encoding package only
	// reads []byte and converting would copy).
	var v uint64
	for i, s := 0, 0; d.off+i < len(d.buf); i++ {
		b := d.buf[d.off+i]
		if i == 9 && b > 1 {
			break // overflows uint64
		}
		if b < 0x80 {
			d.off += i + 1
			return v | uint64(b)<<s
		}
		v |= uint64(b&0x7f) << s
		s += 7
	}
	d.fail("bad varint")
	return 0
}

// int decodes a non-negative int, guarding against values that cannot
// index or size anything in this process.
func (d *dec) int() int {
	v := d.uvarint()
	if d.err == nil && v > uint64(maxInt) {
		d.fail("varint out of int range")
		return 0
	}
	return int(v)
}

// uint32 decodes a value that must fit in 32 bits.
func (d *dec) uint32() uint32 {
	v := d.uvarint()
	if d.err == nil && v > 1<<32-1 {
		d.fail("varint out of uint32 range")
		return 0
	}
	return uint32(v)
}

// length decodes a count/length field and bounds it by the remaining
// buffer so corrupt counts cannot drive huge allocations.
func (d *dec) length() int {
	n := d.int()
	if d.err == nil && n > len(d.buf)-d.off {
		d.fail("length exceeds remaining data")
		return 0
	}
	return n
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("unexpected end")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *dec) bool() bool { return d.byte() != 0 }

func (d *dec) string() string {
	n := d.length()
	if d.err != nil {
		return ""
	}
	s := d.buf[d.off : d.off+n]
	d.off += n
	return s
}

func (d *dec) stringsList() []string {
	n := d.length()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.string()
	}
	return out
}

// done verifies the decoder consumed the buffer exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(d.buf)-d.off)
	}
	return nil
}

const maxInt = int(^uint(0) >> 1)

// crc is the checksum both formats use (IEEE CRC-32, the Go table).
func crc(p []byte) uint32 { return crc32.ChecksumIEEE(p) }

// crcString is crc over a string, fed through a small buffer instead of
// one []byte copy of the whole string.
func crcString(s string) uint32 {
	var buf [32 << 10]byte
	var c uint32
	for len(s) > 0 {
		n := copy(buf[:], s)
		c = crc32.Update(c, crc32.IEEETable, buf[:n])
		s = s[n:]
	}
	return c
}

// putU32/getU32 frame fixed-width fields (record headers, checksums);
// getU32s reads one from a string.
func putU32(buf []byte, v uint32) { binary.LittleEndian.PutUint32(buf, v) }
func getU32(buf []byte) uint32    { return binary.LittleEndian.Uint32(buf) }
func getU32s(s string) uint32 {
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}
