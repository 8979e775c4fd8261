// Package wire implements the Cornflakes wire format (paper §3.3, Fig. 4).
//
// A serialized object is laid out as:
//
//	Object := HeaderRegion | CopyData | ZeroCopyData
//
// where ZeroCopyData is appended by the NIC's gather engine at transmit
// time, so the receiver always sees one contiguous object. The HeaderRegion
// for a message starts with a u32 bitmap word count and a presence bitmap,
// followed by one fixed 8-byte entry per *present* field, in schema order:
//
//	integer fields:        u64 value inline (ints are always copied into
//	                       the header regardless of the threshold, §5 fn.5)
//	bytes/string fields:   u32 absolute offset, u32 length
//	nested message fields: u32 absolute offset (of the nested header), u32
//	                       header-region length
//	list fields:           u32 absolute offset (of the list table), u32
//	                       element count
//
// List tables and nested headers also live in the HeaderRegion; element
// entries use the same 8-byte (offset, length) format, and integer-list
// tables hold u64 values inline. All offsets are absolute within the
// serialized object, and all integers are little-endian — like Cap'n Proto
// and FlatBuffers, Cornflakes does not encode or compress values (§2).
package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// EntrySize is the fixed size of one field entry in the header.
const EntrySize = 8

// MaxFields bounds the schema size we accept; the format itself allows
// 2^32×8 fields (paper fn.4), but a sane bound catches corrupt headers.
const MaxFields = 1 << 16

// BitmapWords returns the number of 32-bit bitmap words for a schema with
// nFields fields.
func BitmapWords(nFields int) int { return (nFields + 31) / 32 }

// FixedLen returns the length of the bitmap-word-count prefix plus bitmap
// for a schema with nFields fields.
func FixedLen(nFields int) int { return 4 + 4*BitmapWords(nFields) }

// HeaderLen returns the size of a message's own header (excluding nested
// headers and list tables): fixed part plus one entry per present field.
func HeaderLen(nFields, nPresent int) int {
	return FixedLen(nFields) + nPresent*EntrySize
}

// PutU32/GetU32/PutU64/GetU64 are the little-endian primitive accessors.
func PutU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func GetU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func PutU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func GetU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

// Header is a view over one message header within a serialized object.
// The same type serves writing (over a zeroed destination) and reading
// (over received bytes).
type Header struct {
	// obj is the full object buffer; all offsets in entries are absolute
	// within it.
	obj []byte
	// base is the offset of this header within obj.
	base    int
	nFields int
	words   int
}

// NewWriter prepares a header for writing at obj[base:]. The bitmap region
// must be zero (freshly allocated or cleared); NewWriter writes the bitmap
// word count.
func NewWriter(obj []byte, base, nFields int) Header {
	h := Header{obj: obj, base: base, nFields: nFields, words: BitmapWords(nFields)}
	PutU32(obj[base:], uint32(h.words))
	for i := 0; i < h.words; i++ {
		PutU32(obj[base+4+4*i:], 0)
	}
	return h
}

// Parse reads a header at obj[base:] for a schema with nFields fields,
// validating the bitmap word count and bounds.
func Parse(obj []byte, base, nFields int) (Header, error) {
	if nFields < 0 || nFields > MaxFields {
		return Header{}, fmt.Errorf("wire: invalid field count %d", nFields)
	}
	if base < 0 || base+4 > len(obj) {
		return Header{}, fmt.Errorf("wire: header base %d out of range (object %d bytes)", base, len(obj))
	}
	words := int(GetU32(obj[base:]))
	if words != BitmapWords(nFields) {
		return Header{}, fmt.Errorf("wire: bitmap words %d, want %d for %d fields", words, BitmapWords(nFields), nFields)
	}
	h := Header{obj: obj, base: base, nFields: nFields, words: words}
	if base+h.fixedLen() > len(obj) {
		return Header{}, fmt.Errorf("wire: truncated bitmap")
	}
	if end := base + h.Len(); end > len(obj) {
		return Header{}, fmt.Errorf("wire: truncated entries: header needs %d bytes, object has %d after base", h.Len(), len(obj)-base)
	}
	return h, nil
}

func (h Header) fixedLen() int { return 4 + 4*h.words }

// Base returns the header's absolute offset within the object.
func (h Header) Base() int { return h.base }

// Len returns the header's own length: fixed part plus entries for the
// fields currently marked present.
func (h Header) Len() int { return h.fixedLen() + h.NumPresent()*EntrySize }

// SetPresent marks field i present. Writers must mark every present field
// before writing any entry, because entry positions depend on the ranks of
// present fields.
func (h Header) SetPresent(i int) {
	h.checkField(i)
	w := h.base + 4 + 4*(i/32)
	PutU32(h.obj[w:], GetU32(h.obj[w:])|1<<(i%32))
}

// Present reports whether field i is present.
func (h Header) Present(i int) bool {
	h.checkField(i)
	w := h.base + 4 + 4*(i/32)
	return GetU32(h.obj[w:])&(1<<(i%32)) != 0
}

// NumPresent counts present fields.
func (h Header) NumPresent() int {
	n := 0
	for w := 0; w < h.words; w++ {
		n += bits.OnesCount32(GetU32(h.obj[h.base+4+4*w:]))
	}
	return n
}

// rank returns how many fields with index < i are present.
func (h Header) rank(i int) int {
	n := 0
	full := i / 32
	for w := 0; w < full; w++ {
		n += bits.OnesCount32(GetU32(h.obj[h.base+4+4*w:]))
	}
	if rem := uint(i % 32); rem > 0 {
		mask := uint32(1)<<rem - 1
		n += bits.OnesCount32(GetU32(h.obj[h.base+4+4*full:]) & mask)
	}
	return n
}

// EntryOffset returns the absolute offset within the object of field i's
// entry. The field must be present.
func (h Header) EntryOffset(i int) int {
	if !h.Present(i) {
		panic(fieldError{field: i, nFields: -1})
	}
	return h.base + h.fixedLen() + h.rank(i)*EntrySize
}

// PutInt writes an integer field inline.
func (h Header) PutInt(i int, v uint64) {
	PutU64(h.obj[h.EntryOffset(i):], v)
}

// Int reads an integer field.
func (h Header) Int(i int) uint64 {
	return GetU64(h.obj[h.EntryOffset(i):])
}

// PutPtr writes an (offset, length/count) entry.
func (h Header) PutPtr(i int, off, length uint32) {
	e := h.EntryOffset(i)
	PutU32(h.obj[e:], off)
	PutU32(h.obj[e+4:], length)
}

// Ptr reads an (offset, length/count) entry.
func (h Header) Ptr(i int) (off, length uint32) {
	e := h.EntryOffset(i)
	return GetU32(h.obj[e:]), GetU32(h.obj[e+4:])
}

// CheckRange validates that an (off, length) pair from an entry lies within
// the object, guarding getters against corrupt or malicious headers.
func (h Header) CheckRange(off, length uint32) error {
	end := uint64(off) + uint64(length)
	if end > uint64(len(h.obj)) {
		return fmt.Errorf("wire: range [%d, %d) outside %d-byte object", off, end, len(h.obj))
	}
	return nil
}

// Object returns the full object buffer the header views.
func (h Header) Object() []byte { return h.obj }

func (h Header) checkField(i int) {
	if i < 0 || i >= h.nFields {
		panic(fieldError{field: i, nFields: h.nFields})
	}
}

// fieldError is what a header accessor panics with when it cannot serve
// field: out of range for a schema of nFields fields, or, with nFields -1,
// absent. It formats its text only when printed, which keeps the bitmap
// accessors small enough to inline.
type fieldError struct{ field, nFields int }

func (e fieldError) Error() string {
	if e.nFields < 0 {
		return fmt.Sprintf("wire: EntryOffset of absent field %d", e.field)
	}
	return fmt.Sprintf("wire: field %d out of range (%d fields)", e.field, e.nFields)
}

// ListTable is a view over a list's element table within an object.
type ListTable struct {
	obj   []byte
	off   int // absolute offset of the table
	count int
}

// NewListTable views a table of count entries at absolute offset off.
func NewListTable(obj []byte, off, count int) (ListTable, error) {
	if off < 0 || count < 0 || off+count*EntrySize > len(obj) {
		return ListTable{}, fmt.Errorf("wire: list table [%d, +%d entries) outside %d-byte object", off, count, len(obj))
	}
	return ListTable{obj: obj, off: off, count: count}, nil
}

// Count returns the number of elements.
func (t ListTable) Count() int { return t.count }

// PutElemPtr writes element j's (offset, length) pair.
func (t ListTable) PutElemPtr(j int, off, length uint32) {
	e := t.elem(j)
	PutU32(t.obj[e:], off)
	PutU32(t.obj[e+4:], length)
}

// ElemPtr reads element j's (offset, length) pair.
func (t ListTable) ElemPtr(j int) (off, length uint32) {
	e := t.elem(j)
	return GetU32(t.obj[e:]), GetU32(t.obj[e+4:])
}

// PutElemInt writes element j of an integer list.
func (t ListTable) PutElemInt(j int, v uint64) { PutU64(t.obj[t.elem(j):], v) }

// ElemInt reads element j of an integer list.
func (t ListTable) ElemInt(j int) uint64 { return GetU64(t.obj[t.elem(j):]) }

func (t ListTable) elem(j int) int {
	if j < 0 || j >= t.count {
		panic(fmt.Sprintf("wire: list element %d out of range (count %d)", j, t.count))
	}
	return t.off + j*EntrySize
}
