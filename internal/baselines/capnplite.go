package baselines

import (
	"fmt"

	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
	"cornflakes/internal/wire"
)

// capnplite implements a Cap'n Proto-style format: word (8-byte) aligned
// structs built into fixed-size segments, with inter-object pointers that
// name a (segment, word offset, length). Like Cap'n Proto, integers are
// stored raw (no varint encoding) and the message is produced as a list of
// non-contiguous segment buffers, which is exactly the network datapath the
// paper gives it: "Cap'n Proto provides a non-contiguous list of buffers
// that represent the object" (§6.1.3).
//
// Struct layout per message: one word per schema field (present or not):
//
//	int fields:   u64 value
//	data fields:  pointer word {u16 seg | u16 wordOff*8→u32 | u32 byteLen}
//	lists:        pointer word to a run of element words
//
// A pointer word packs: bits 0..15 segment, 16..47 byte offset within the
// segment, 48..63 low 16 bits of length — with a second length word for
// blobs (keeps the format simple while staying word-aligned).
const capnpSegSize = 4096

// CapnpMessage is a built message: a list of segments.
type CapnpMessage struct {
	Segs [][]byte
	Sims []uint64
}

// TotalLen returns the summed segment length.
func (cm *CapnpMessage) TotalLen() int {
	n := 0
	for _, s := range cm.Segs {
		n += len(s)
	}
	return n
}

type capnpBuilder struct {
	segs [][]byte
	sims []uint64 // scratch slot per segment, assigned at allocation
	m    *costmodel.Meter
}

// allocWords reserves n 8-byte words, returning (segment, byte offset).
// Runs larger than a segment get a dedicated segment.
func (b *capnpBuilder) allocWords(n int) (int, int) {
	need := n * 8
	if len(b.segs) == 0 || len(b.segs[len(b.segs)-1])+need > cap(b.segs[len(b.segs)-1]) {
		size := capnpSegSize
		if need > size {
			size = need
		}
		b.segs = append(b.segs, make([]byte, 0, size))
		// Segments are appended to while the message is built, so their
		// addresses must not depend on their contents; each segment keeps
		// the address assigned when its chunk was allocated.
		b.sims = append(b.sims, b.m.AllocSimAddr(size))
		b.m.Charge(b.m.CPU.HeapAllocCy)
	}
	si := len(b.segs) - 1
	off := len(b.segs[si])
	b.segs[si] = b.segs[si][:off+need]
	return si, off
}

func capnpPtr(seg, off, length int) uint64 {
	return uint64(uint16(seg)) | uint64(uint32(off))<<16 | uint64(uint16(length))<<48
}

func capnpUnptr(w uint64) (seg, off, length int) {
	return int(uint16(w)), int(uint32(w >> 16)), int(uint16(w >> 48))
}

// CapnpBuild serializes d into segments.
func CapnpBuild(d *Doc, m *costmodel.Meter) *CapnpMessage {
	b := &capnpBuilder{m: m}
	b.writeStruct(d)
	cm := &CapnpMessage{Segs: b.segs, Sims: b.sims}
	return cm
}

// writeStruct emits d's struct words and returns (segment, byte offset).
func (b *capnpBuilder) writeStruct(d *Doc) (int, int) {
	m := b.m
	nf := len(d.Schema.Fields)
	if nf > 64 {
		panic("capnplite: schemas with more than 64 fields are not supported (single presence word)")
	}
	// One presence word + one word per field.
	seg, off := b.allocWords(1 + nf)
	words := b.segs[seg]
	var presence uint64
	for i := range d.F {
		if d.F[i].Set {
			presence |= 1 << i
		}
	}
	wire.PutU64(words[off:], presence)

	putWord := func(i int, v uint64) { wire.PutU64(words[off+8+8*i:], v) }
	// Blobs are written after the struct words; pointer words reference
	// them. A blob occupies ceil(len/8)+1 words: one length word plus data.
	putBlob := func(data []byte, sim uint64) uint64 {
		w := (len(data) + 7) / 8
		bs, bo := b.allocWords(w + 1)
		wire.PutU64(b.segs[bs][bo:], uint64(len(data)))
		m.Copy(sim, b.sims[bs]+uint64(bo)+8, len(data))
		copy(b.segs[bs][bo+8:], data)
		return capnpPtr(bs, bo, 0)
	}

	for i := range d.F {
		fv := &d.F[i]
		if !fv.Set {
			continue
		}
		m.Charge(m.CPU.PerFieldCy)
		switch d.Schema.Fields[i].Kind {
		case core.KindInt:
			putWord(i, fv.I)
		case core.KindBytes, core.KindString:
			putWord(i, putBlob(fv.B[0], fv.Sim[0]))
		case core.KindBytesList, core.KindStringList:
			ls, lo := b.allocWords(1 + len(fv.B))
			wire.PutU64(b.segs[ls][lo:], uint64(len(fv.B)))
			for j, bb := range fv.B {
				p := putBlob(bb, fv.Sim[j])
				wire.PutU64(b.segs[ls][lo+8+8*j:], p)
			}
			putWord(i, capnpPtr(ls, lo, 0))
		case core.KindIntList:
			ls, lo := b.allocWords(1 + len(fv.IL))
			wire.PutU64(b.segs[ls][lo:], uint64(len(fv.IL)))
			for j, v := range fv.IL {
				wire.PutU64(b.segs[ls][lo+8+8*j:], v)
			}
			putWord(i, capnpPtr(ls, lo, 0))
		case core.KindNested:
			ss, so := b.writeStruct(fv.M[0])
			putWord(i, capnpPtr(ss, so, 0))
		case core.KindNestedList:
			ls, lo := b.allocWords(1 + len(fv.M))
			wire.PutU64(b.segs[ls][lo:], uint64(len(fv.M)))
			for j, sub := range fv.M {
				ss, so := b.writeStruct(sub)
				wire.PutU64(b.segs[ls][lo+8+8*j:], capnpPtr(ss, so, 0))
			}
			putWord(i, capnpPtr(ls, lo, 0))
		}
	}
	return seg, off
}

// CapnpFrame is a message framed for transmission: Segs is the segment
// table (u32 segment count, u32 per-segment length) followed by the
// builder's segments, and Sims their simulated addresses. A sender keeps
// one and reflattens into it, so framing allocates nothing once its arrays
// have grown; Segs is valid until the next CapnpFlatten into the frame.
type CapnpFrame struct {
	Segs [][]byte
	Sims []uint64
	hdr  []byte
}

// CapnpFlatten frames cm into f for transmission, reusing f's arrays. (The
// builder output stays segmented; the netstack copies f.Segs into a DMA
// buffer in this framing.) The segment table's simulated address is the
// hash of its contents, as for any unpinned buffer.
func CapnpFlatten(f *CapnpFrame, cm *CapnpMessage) {
	hdr := append(f.hdr[:0], make([]byte, 4+4*len(cm.Segs))...)
	wire.PutU32(hdr, uint32(len(cm.Segs)))
	for i, s := range cm.Segs {
		wire.PutU32(hdr[4+4*i:], uint32(len(s)))
	}
	f.hdr = hdr
	f.Segs = append(append(f.Segs[:0], hdr), cm.Segs...)
	f.Sims = append(append(f.Sims[:0], mem.UnpinnedSimAddr(hdr)), cm.Sims...)
}

// CapnpDecode parses a framed capnplite message into a Doc with zero-copy
// views, validating structure and (eagerly) UTF-8 in string fields.
func CapnpDecode(schema *core.Schema, data []byte, sim uint64, m *costmodel.Meter) (*Doc, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("capnplite: short message")
	}
	nseg := int(wire.GetU32(data))
	if nseg <= 0 || nseg > 1<<16 {
		return nil, fmt.Errorf("capnplite: bad segment count %d", nseg)
	}
	hdrLen := 4 + 4*nseg
	if len(data) < hdrLen {
		return nil, fmt.Errorf("capnplite: truncated segment table")
	}
	m.Access(sim, hdrLen)
	segs := make([][]byte, nseg)
	sims := make([]uint64, nseg)
	cur := hdrLen
	for i := 0; i < nseg; i++ {
		n := int(wire.GetU32(data[4+4*i:]))
		if cur+n > len(data) {
			return nil, fmt.Errorf("capnplite: segment %d overruns message", i)
		}
		segs[i] = data[cur : cur+n : cur+n]
		sims[i] = sim + uint64(cur)
		cur += n
	}
	return capnpDecodeStruct(schema, segs, sims, 0, 0, m, 0)
}

func capnpDecodeStruct(schema *core.Schema, segs [][]byte, sims []uint64, seg, off int, m *costmodel.Meter, depth int) (*Doc, error) {
	if depth > fbMaxDepth {
		return nil, fmt.Errorf("capnplite: nesting too deep")
	}
	nf := len(schema.Fields)
	if seg >= len(segs) || off < 0 || off+8*(1+nf) > len(segs[seg]) {
		return nil, fmt.Errorf("capnplite: struct pointer out of range (seg %d off %d)", seg, off)
	}
	m.Access(sims[seg]+uint64(off), 8*(1+nf))
	words := segs[seg]
	presence := wire.GetU64(words[off:])

	blob := func(p uint64) ([]byte, uint64, error) {
		bs, bo, _ := capnpUnptr(p)
		if bs >= len(segs) || bo < 0 || bo+8 > len(segs[bs]) {
			return nil, 0, fmt.Errorf("capnplite: blob pointer out of range")
		}
		n64 := wire.GetU64(segs[bs][bo:])
		// Compare in uint64 space: a hostile length must not overflow the
		// int arithmetic of the bounds check.
		if n64 > uint64(len(segs[bs])) || bo+8+int(n64) > len(segs[bs]) {
			return nil, 0, fmt.Errorf("capnplite: blob overruns segment")
		}
		n := int(n64)
		return segs[bs][bo+8 : bo+8+n : bo+8+n], sims[bs] + uint64(bo) + 8, nil
	}
	list := func(p uint64) (int, int, int, error) { // seg, elem0 offset, count
		ls, lo, _ := capnpUnptr(p)
		if ls >= len(segs) || lo < 0 || lo+8 > len(segs[ls]) {
			return 0, 0, 0, fmt.Errorf("capnplite: list pointer out of range")
		}
		c64 := wire.GetU64(segs[ls][lo:])
		if c64 > uint64(len(segs[ls]))/8 || lo+8+8*int(c64) > len(segs[ls]) {
			return 0, 0, 0, fmt.Errorf("capnplite: list overruns segment")
		}
		return ls, lo + 8, int(c64), nil
	}

	d := NewDoc(schema)
	for i, f := range schema.Fields {
		if presence&(1<<i) == 0 {
			continue
		}
		m.Charge(m.CPU.PerFieldCy)
		w := wire.GetU64(words[off+8+8*i:])
		switch f.Kind {
		case core.KindInt:
			d.SetInt(i, w)
		case core.KindBytes, core.KindString:
			bb, bsim, err := blob(w)
			if err != nil {
				return nil, err
			}
			if f.Kind == core.KindString {
				m.Charge(float64(len(bb)) * m.CPU.UTF8ValidateCyPerByte)
				m.Access(bsim, len(bb))
			}
			d.SetBytes(i, bb, bsim)
		case core.KindBytesList, core.KindStringList:
			ls, e0, count, err := list(w)
			if err != nil {
				return nil, err
			}
			for j := 0; j < count; j++ {
				bb, bsim, err := blob(wire.GetU64(segs[ls][e0+8*j:]))
				if err != nil {
					return nil, err
				}
				if f.Kind == core.KindStringList {
					m.Charge(float64(len(bb)) * m.CPU.UTF8ValidateCyPerByte)
				}
				d.AddBytes(i, bb, bsim)
			}
		case core.KindIntList:
			ls, e0, count, err := list(w)
			if err != nil {
				return nil, err
			}
			for j := 0; j < count; j++ {
				d.AddInt(i, wire.GetU64(segs[ls][e0+8*j:]))
			}
		case core.KindNested:
			ss, so, _ := capnpUnptr(w)
			sub, err := capnpDecodeStruct(f.Nested, segs, sims, ss, so, m, depth+1)
			if err != nil {
				return nil, err
			}
			d.SetNested(i, sub)
		case core.KindNestedList:
			ls, e0, count, err := list(w)
			if err != nil {
				return nil, err
			}
			for j := 0; j < count; j++ {
				ss, so, _ := capnpUnptr(wire.GetU64(segs[ls][e0+8*j:]))
				sub, err := capnpDecodeStruct(f.Nested, segs, sims, ss, so, m, depth+1)
				if err != nil {
					return nil, err
				}
				d.AddNested(i, sub)
			}
		}
	}
	return d, nil
}
