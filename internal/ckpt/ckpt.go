// Package ckpt is the EMCK v1 checkpoint envelope shared by the
// incremental receivers (covert.Receiver, keylog.Detector): a versioned
// header around a payload of fixed-width little-endian fields. Float
// bits round-trip exactly through math.Float64bits, which is what lets
// a restored receiver finish byte-identical to an uninterrupted one.
//
// Wire format (little endian):
//
//	magic   [4]byte  "EMCK"
//	version uint16   (currently 1)
//	kind    uint8    (KindCovert or KindKeylog)
//	flags   uint8    (reserved, must be 0)
//	paylen  uint64   payload byte count
//	digest  uint64   FNV-64a over the payload bytes
//	payload [paylen]byte
//
// Open is defensive end to end: a truncated, corrupted, or wrong-kind
// checkpoint returns an error — never a panic and never a silently
// wrong payload (the digest catches bit flips the structural checks
// cannot).
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Receiver kinds recorded in the header.
const (
	KindCovert uint8 = 1
	KindKeylog uint8 = 2
)

const (
	version   = 1
	headerLen = 4 + 2 + 1 + 1 + 8 + 8
)

var magic = [4]byte{'E', 'M', 'C', 'K'}

// Seal wraps a payload in the versioned header.
func Seal(kind uint8, payload []byte) []byte {
	out := make([]byte, headerLen+len(payload))
	copy(out, magic[:])
	binary.LittleEndian.PutUint16(out[4:], version)
	out[6] = kind
	out[7] = 0
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	h := fnv.New64a()
	h.Write(payload)
	binary.LittleEndian.PutUint64(out[16:], h.Sum64())
	copy(out[headerLen:], payload)
	return out
}

// Open validates the header and digest and returns a decoder over the
// payload.
func Open(kind uint8, data []byte) (*Dec, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("ckpt: checkpoint truncated: %d bytes, header needs %d", len(data), headerLen)
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("ckpt: checkpoint magic %q is not %q", data[:4], magic[:])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != version {
		return nil, fmt.Errorf("ckpt: checkpoint version %d unsupported (want %d)", v, version)
	}
	if data[6] != kind {
		return nil, fmt.Errorf("ckpt: checkpoint kind %d does not match processor kind %d", data[6], kind)
	}
	if data[7] != 0 {
		return nil, fmt.Errorf("ckpt: checkpoint flags %#x unsupported", data[7])
	}
	paylen := binary.LittleEndian.Uint64(data[8:])
	if paylen != uint64(len(data)-headerLen) {
		return nil, fmt.Errorf("ckpt: checkpoint payload length %d does not match %d trailing bytes", paylen, len(data)-headerLen)
	}
	payload := data[headerLen:]
	h := fnv.New64a()
	h.Write(payload)
	if got, want := h.Sum64(), binary.LittleEndian.Uint64(data[16:]); got != want {
		return nil, fmt.Errorf("ckpt: checkpoint digest mismatch: payload hashes to %#x, header says %#x", got, want)
	}
	return &Dec{b: payload}, nil
}

// Enc appends fixed-width little-endian fields to a payload.
type Enc struct{ B []byte }

func (e *Enc) U64(v uint64)      { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) I64(v int)         { e.U64(uint64(int64(v))) }
func (e *Enc) F64(v float64)     { e.U64(math.Float64bits(v)) }
func (e *Enc) C128(v complex128) { e.F64(real(v)); e.F64(imag(v)) }

// F64s writes a length-prefixed float slice.
func (e *Enc) F64s(v []float64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// C128s writes a length-prefixed complex slice.
func (e *Enc) C128s(v []complex128) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.C128(x)
	}
}

// Dec is the error-latching cursor over a payload. Every accessor
// becomes a no-op returning zero after the first failure, so decoders
// read straight through and check Err or Finish once.
type Dec struct {
	b   []byte
	off int
	// Err is the first decode failure.
	Err error
}

func (d *Dec) fail(format string, args ...any) {
	if d.Err == nil {
		d.Err = fmt.Errorf("ckpt: checkpoint payload: "+format, args...)
	}
}

func (d *Dec) U64() uint64 {
	if d.Err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("truncated at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// I64 reads an integer field. Every integer in a receiver's state is a
// sample, frame, or bin count, so anything outside int32 range is
// corruption; catching it here keeps later make() calls sane on 32-bit.
func (d *Dec) I64() int {
	v := int64(d.U64())
	if d.Err == nil && (v > math.MaxInt32 || v < math.MinInt32) {
		d.fail("integer field %d out of plausible range", v)
		return 0
	}
	return int(v)
}

func (d *Dec) F64() float64     { return math.Float64frombits(d.U64()) }
func (d *Dec) C128() complex128 { return complex(d.F64(), d.F64()) }

// SliceLen reads a length prefix and bounds it by the bytes that remain
// (elemSize bytes per element), so corrupted prefixes cannot drive huge
// allocations.
func (d *Dec) SliceLen(elemSize int) int {
	n := d.U64()
	if d.Err != nil {
		return 0
	}
	if max := uint64(len(d.b)-d.off) / uint64(elemSize); n > max {
		d.fail("slice length %d exceeds the %d elements the remaining bytes can hold", n, max)
		return 0
	}
	return int(n)
}

// F64s reads a length-prefixed float slice.
func (d *Dec) F64s() []float64 {
	n := d.SliceLen(8)
	if d.Err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// C128s reads a length-prefixed complex slice.
func (d *Dec) C128s() []complex128 {
	n := d.SliceLen(16)
	if d.Err != nil {
		return nil
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = d.C128()
	}
	return out
}

// Finish asserts the payload was consumed exactly.
func (d *Dec) Finish() error {
	if d.Err != nil {
		return d.Err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("ckpt: checkpoint payload: %d trailing bytes after decode", len(d.b)-d.off)
	}
	return nil
}
