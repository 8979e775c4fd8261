package baselines

import (
	"fmt"

	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/wire"
)

// fblite implements a FlatBuffers-style format: tables of fields located
// through per-table vtables, with all variable-length data serialized into
// one contiguous buffer by a builder. Numbers are little-endian and never
// encoded (like FlatBuffers). The builder copies every payload once into
// its buffer; the networking stack then copies the finished buffer into
// DMA-safe memory — the two-copy datapath of §6.1.3.
//
// Layout (simplified relative to real FlatBuffers, which builds
// back-to-front with relative offsets; this builder uses absolute u32
// offsets from the buffer start):
//
//	buffer  := u32 rootTableOff | data... | tables...
//	table   := u32 vtableOff | fieldSlots...
//	vtable  := u16 numFields | u16 slotOff per field (0xFFFF = absent)
//	scalar  : u64 inline in slot
//	blob    : u32 off → u32 len | bytes
//	vector  : u32 off → u32 count | (u64 ints | u32 blob offs | u32 table offs)
//	nested  : u32 off → table
type fbBuilder struct {
	buf  []byte
	base uint64 // simulated address of buf, reassigned on regrow
	m    *costmodel.Meter
}

// sim is the address assigned when buf was (re)allocated — the buffer
// mutates as the message is built, so its address cannot track contents.
func (b *fbBuilder) sim() uint64 { return b.base }

func (b *fbBuilder) grow(n int) int {
	off := len(b.buf)
	if off+n > cap(b.buf) {
		// Builder reallocation: real FlatBuffers doubles its buffer and
		// copies — charge that move.
		newCap := cap(b.buf) * 2
		if newCap < off+n {
			newCap = (off + n) * 2
		}
		nb := make([]byte, off, newCap)
		b.m.Charge(b.m.CPU.HeapAllocCy)
		old := b.base
		b.base = b.m.AllocSimAddr(newCap)
		b.m.Copy(old, b.base, off)
		copy(nb, b.buf)
		b.buf = nb
	}
	b.buf = b.buf[:off+n]
	return off
}

func (b *fbBuilder) putBlob(data []byte, sim uint64) uint32 {
	off := b.grow(4 + len(data))
	wire.PutU32(b.buf[off:], uint32(len(data)))
	b.m.Copy(sim, b.sim()+uint64(off)+4, len(data))
	copy(b.buf[off+4:], data)
	return uint32(off)
}

// FBBuild serializes d into a fresh contiguous buffer.
func FBBuild(d *Doc, m *costmodel.Meter) []byte {
	buf, _ := FBBuildSim(d, m)
	return buf
}

// FBBuildSim is FBBuild but also returns the simulated address the builder
// left the bytes at, so a send can read the lines the build just wrote.
func FBBuildSim(d *Doc, m *costmodel.Meter) ([]byte, uint64) {
	b := &fbBuilder{buf: make([]byte, 0, 256), base: m.AllocSimAddr(256), m: m}
	m.Charge(m.CPU.HeapAllocCy)
	b.grow(4) // room for the root offset
	root := b.table(d)
	wire.PutU32(b.buf[0:], root)
	return b.buf, b.sim()
}

func (b *fbBuilder) table(d *Doc) uint32 {
	m := b.m
	nf := len(d.Schema.Fields)

	// Serialize out-of-line parts first, remembering each slot value.
	slots := make([]uint64, nf)
	present := make([]bool, nf)
	for i := range d.F {
		fv := &d.F[i]
		if !fv.Set {
			continue
		}
		m.Charge(m.CPU.PerFieldCy)
		present[i] = true
		switch d.Schema.Fields[i].Kind {
		case core.KindInt:
			slots[i] = fv.I
		case core.KindBytes, core.KindString:
			slots[i] = uint64(b.putBlob(fv.B[0], fv.Sim[0]))
		case core.KindBytesList, core.KindStringList:
			offs := make([]uint32, len(fv.B))
			for j, bb := range fv.B {
				offs[j] = b.putBlob(bb, fv.Sim[j])
			}
			v := b.grow(4 + 4*len(offs))
			wire.PutU32(b.buf[v:], uint32(len(offs)))
			for j, o := range offs {
				wire.PutU32(b.buf[v+4+4*j:], o)
			}
			slots[i] = uint64(v)
		case core.KindIntList:
			v := b.grow(4 + 8*len(fv.IL))
			wire.PutU32(b.buf[v:], uint32(len(fv.IL)))
			for j, x := range fv.IL {
				wire.PutU64(b.buf[v+4+8*j:], x)
			}
			slots[i] = uint64(v)
		case core.KindNested:
			slots[i] = uint64(b.table(fv.M[0]))
		case core.KindNestedList:
			offs := make([]uint32, len(fv.M))
			for j, sub := range fv.M {
				offs[j] = b.table(sub)
			}
			v := b.grow(4 + 4*len(offs))
			wire.PutU32(b.buf[v:], uint32(len(offs)))
			for j, o := range offs {
				wire.PutU32(b.buf[v+4+4*j:], o)
			}
			slots[i] = uint64(v)
		}
	}

	// vtable: u16 count + u16 slot offset per field.
	vt := b.grow(2 + 2*nf)
	b.buf[vt] = byte(nf)
	b.buf[vt+1] = byte(nf >> 8)
	// table: u32 vtable offset + slots for present fields.
	slotBytes := 0
	for i := 0; i < nf; i++ {
		if present[i] {
			slotBytes += 8
		}
	}
	tbl := b.grow(4 + slotBytes)
	wire.PutU32(b.buf[tbl:], uint32(vt))
	cur := 4
	for i := 0; i < nf; i++ {
		so := 0xFFFF
		if present[i] {
			so = cur
			wire.PutU64(b.buf[tbl+cur:], slots[i])
			cur += 8
		}
		b.buf[vt+2+2*i] = byte(so)
		b.buf[vt+2+2*i+1] = byte(so >> 8)
	}
	return uint32(tbl)
}

// FBDecode parses an fblite buffer into a zero-copy accessor, validating
// structure eagerly (including UTF-8 for string fields, which FlatBuffers
// verifiers do at deserialization time, unlike Cornflakes).
func FBDecode(schema *core.Schema, data []byte, sim uint64, m *costmodel.Meter) (*Doc, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("fblite: short buffer")
	}
	root := int(wire.GetU32(data))
	return fbDecodeTable(schema, data, sim, root, m, 0)
}

const fbMaxDepth = 64

func fbDecodeTable(schema *core.Schema, data []byte, sim uint64, tbl int, m *costmodel.Meter, depth int) (*Doc, error) {
	if depth > fbMaxDepth {
		return nil, fmt.Errorf("fblite: nesting too deep")
	}
	if tbl < 0 || tbl+4 > len(data) {
		return nil, fmt.Errorf("fblite: table offset %d out of range", tbl)
	}
	m.Access(sim+uint64(tbl), 4)
	vt := int(wire.GetU32(data[tbl:]))
	if vt < 0 || vt+2 > len(data) {
		return nil, fmt.Errorf("fblite: vtable offset %d out of range", vt)
	}
	nf := int(data[vt]) | int(data[vt+1])<<8
	if nf != len(schema.Fields) {
		return nil, fmt.Errorf("fblite: vtable has %d fields, schema %s has %d", nf, schema.Name, len(schema.Fields))
	}
	if vt+2+2*nf > len(data) {
		return nil, fmt.Errorf("fblite: truncated vtable")
	}
	m.Access(sim+uint64(vt), 2+2*nf)

	d := NewDoc(schema)
	blob := func(off int) ([]byte, error) {
		if off < 0 || off+4 > len(data) {
			return nil, fmt.Errorf("fblite: blob offset %d out of range", off)
		}
		n := int(wire.GetU32(data[off:]))
		if off+4+n > len(data) {
			return nil, fmt.Errorf("fblite: blob overruns buffer")
		}
		return data[off+4 : off+4+n : off+4+n], nil
	}
	for i, f := range schema.Fields {
		so := int(data[vt+2+2*i]) | int(data[vt+2+2*i+1])<<8
		if so == 0xFFFF {
			continue
		}
		m.Charge(m.CPU.PerFieldCy)
		if tbl+so+8 > len(data) {
			return nil, fmt.Errorf("fblite: slot for %s overruns table", f.Name)
		}
		slot := wire.GetU64(data[tbl+so:])
		switch f.Kind {
		case core.KindInt:
			d.SetInt(i, slot)
		case core.KindBytes, core.KindString:
			bb, err := blob(int(slot))
			if err != nil {
				return nil, err
			}
			if f.Kind == core.KindString {
				m.Charge(float64(len(bb)) * m.CPU.UTF8ValidateCyPerByte)
				m.Access(sim+uint64(int(slot)+4), len(bb))
			}
			d.SetBytes(i, bb, sim+uint64(int(slot)+4))
		case core.KindBytesList, core.KindStringList:
			off := int(slot)
			if off < 0 || off+4 > len(data) {
				return nil, fmt.Errorf("fblite: vector offset out of range")
			}
			count := int(wire.GetU32(data[off:]))
			if off+4+4*count > len(data) {
				return nil, fmt.Errorf("fblite: vector overruns buffer")
			}
			for j := 0; j < count; j++ {
				bo := int(wire.GetU32(data[off+4+4*j:]))
				bb, err := blob(bo)
				if err != nil {
					return nil, err
				}
				if f.Kind == core.KindStringList {
					m.Charge(float64(len(bb)) * m.CPU.UTF8ValidateCyPerByte)
				}
				d.AddBytes(i, bb, sim+uint64(bo+4))
			}
		case core.KindIntList:
			off := int(slot)
			if off < 0 || off+4 > len(data) {
				return nil, fmt.Errorf("fblite: int vector offset out of range")
			}
			count := int(wire.GetU32(data[off:]))
			if off+4+8*count > len(data) {
				return nil, fmt.Errorf("fblite: int vector overruns buffer")
			}
			for j := 0; j < count; j++ {
				d.AddInt(i, wire.GetU64(data[off+4+8*j:]))
			}
		case core.KindNested:
			sub, err := fbDecodeTable(f.Nested, data, sim, int(slot), m, depth+1)
			if err != nil {
				return nil, err
			}
			d.SetNested(i, sub)
		case core.KindNestedList:
			off := int(slot)
			if off < 0 || off+4 > len(data) {
				return nil, fmt.Errorf("fblite: table vector offset out of range")
			}
			count := int(wire.GetU32(data[off:]))
			if off+4+4*count > len(data) {
				return nil, fmt.Errorf("fblite: table vector overruns buffer")
			}
			for j := 0; j < count; j++ {
				sub, err := fbDecodeTable(f.Nested, data, sim, int(wire.GetU32(data[off+4+4*j:])), m, depth+1)
				if err != nil {
					return nil, err
				}
				d.AddNested(i, sub)
			}
		}
	}
	return d, nil
}
