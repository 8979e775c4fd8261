package core

import (
	"fmt"

	"cornflakes/internal/mem"
	"cornflakes/internal/wire"
)

// Layout summarises a serialized object's shape. The networking stack uses
// it to size DMA buffers and decide scatter-gather entry counts before any
// bytes are written (§3.2.3: "the networking stack first calculates the
// object size and number of copy and zero-copy entries").
type Layout struct {
	// HeaderLen is the header region: message headers, nested headers and
	// list tables.
	HeaderLen int
	// CopyLen / ZCLen are the bytes of copied and zero-copy field data.
	CopyLen, ZCLen int
	// NumCopy / NumZC count data entries of each variant.
	NumCopy, NumZC int
	// Fields and Elems count present fields and list elements across the
	// object tree, for serialization cost accounting.
	Fields, Elems int
}

// ObjectLen is the total serialized size.
func (l Layout) ObjectLen() int { return l.HeaderLen + l.CopyLen + l.ZCLen }

// fieldVal holds one field's send-side value.
type fieldVal struct {
	set  bool
	i    uint64
	ptrs []CFPtr
	ints []uint64
	msgs []*Message
}

// clear empties the value but keeps the slice capacity, so a reused
// message's repeated fields append without reallocating. The element clears
// drop the buffer and sub-message references a parked value must not pin.
func (v *fieldVal) clear() {
	clear(v.ptrs)
	clear(v.msgs)
	v.ptrs = v.ptrs[:0]
	v.ints = v.ints[:0]
	v.msgs = v.msgs[:0]
	v.set = false
	v.i = 0
}

// Message is the dynamic (runtime-schema) Cornflakes object. A Message is
// either send-mode (built with setters, then passed to SendObject) or
// recv-mode (returned by Deserialize, read with getters); the two modes
// mirror the generated-code interface in Listing 1.
type Message struct {
	schema *Schema
	ctx    *Ctx

	// Send side.
	vals []fieldVal

	// Recv side.
	recv bool
	rbuf *mem.Buf // nil for nested views, which share the root's buffer
	rhdr wire.Header
	rsim uint64 // simulated address of the object's first byte

	// pooled marks a message parked in its Ctx's pool; it guards against a
	// double Release double-parking the same struct.
	pooled bool
}

// NewMessage returns an empty send-mode message, reusing a pooled struct
// from the Ctx when one is available.
func NewMessage(schema *Schema, ctx *Ctx) *Message {
	if m := ctx.getMsg(schema); m != nil {
		m.pooled = false
		m.recv = false
		m.rbuf, m.rhdr, m.rsim = nil, wire.Header{}, 0
		if m.vals == nil {
			// The pooled struct served a recv view before; give it send state.
			m.vals = make([]fieldVal, len(schema.Fields))
		}
		return m
	}
	return &Message{schema: schema, ctx: ctx, vals: make([]fieldVal, len(schema.Fields))}
}

// Schema returns the message's schema.
func (m *Message) Schema() *Schema { return m.schema }

// kindSet is a bitmask of acceptable FieldKinds. field takes a mask rather
// than a variadic list: the variadic slice escaped to the heap through the
// panic path's Sprintf, putting one allocation on every getter and setter —
// the hottest calls in the library.
type kindSet uint32

func (s kindSet) String() string {
	out := ""
	for k := FieldKind(0); k < 32; k++ {
		if s&(1<<k) != 0 {
			if out != "" {
				out += "|"
			}
			out += k.String()
		}
	}
	return out
}

func (m *Message) field(i int, want kindSet) *Field {
	if i < 0 || i >= len(m.schema.Fields) {
		panic(fmt.Sprintf("core: field %d out of range in %s", i, m.schema.Name))
	}
	f := &m.schema.Fields[i]
	if want&(1<<f.Kind) != 0 {
		return f
	}
	panic(fmt.Sprintf("core: field %s.%s has kind %v, not %v", m.schema.Name, f.Name, f.Kind, want))
}

func (m *Message) mustSend() {
	if m.recv {
		panic("core: cannot mutate a received message")
	}
}

// SetInt sets an integer field.
func (m *Message) SetInt(i int, v uint64) {
	m.mustSend()
	m.field(i, 1<<KindInt)
	m.vals[i].set = true
	m.vals[i].i = v
}

// SetBytes sets a bytes field.
func (m *Message) SetBytes(i int, p CFPtr) {
	m.mustSend()
	m.field(i, 1<<KindBytes)
	m.vals[i].set = true
	m.vals[i].ptrs = append(m.vals[i].ptrs[:0], p)
}

// SetString sets a string field.
func (m *Message) SetString(i int, p CFPtr) {
	m.mustSend()
	m.field(i, 1<<KindString)
	m.vals[i].set = true
	m.vals[i].ptrs = append(m.vals[i].ptrs[:0], p)
}

// AppendBytes appends to a repeated bytes field.
func (m *Message) AppendBytes(i int, p CFPtr) {
	m.mustSend()
	m.field(i, 1<<KindBytesList)
	m.vals[i].set = true
	m.vals[i].ptrs = append(m.vals[i].ptrs, p)
}

// AppendString appends to a repeated string field.
func (m *Message) AppendString(i int, p CFPtr) {
	m.mustSend()
	m.field(i, 1<<KindStringList)
	m.vals[i].set = true
	m.vals[i].ptrs = append(m.vals[i].ptrs, p)
}

// AppendInt appends to a repeated integer field.
func (m *Message) AppendInt(i int, v uint64) {
	m.mustSend()
	m.field(i, 1<<KindIntList)
	m.vals[i].set = true
	m.vals[i].ints = append(m.vals[i].ints, v)
}

// SetNested sets a nested message field. The nested message must use the
// field's nested schema.
func (m *Message) SetNested(i int, sub *Message) {
	m.mustSend()
	f := m.field(i, 1<<KindNested)
	if sub.schema != f.Nested {
		panic(fmt.Sprintf("core: nested message schema %s, want %s", sub.schema.Name, f.Nested.Name))
	}
	m.vals[i].set = true
	m.vals[i].msgs = append(m.vals[i].msgs[:0], sub)
}

// AppendNested appends to a repeated nested field.
func (m *Message) AppendNested(i int, sub *Message) {
	m.mustSend()
	f := m.field(i, 1<<KindNestedList)
	if sub.schema != f.Nested {
		panic(fmt.Sprintf("core: nested message schema %s, want %s", sub.schema.Name, f.Nested.Name))
	}
	m.vals[i].set = true
	m.vals[i].msgs = append(m.vals[i].msgs, sub)
}

// numPresent counts send-side set fields.
func (m *Message) numPresent() int {
	n := 0
	for i := range m.vals {
		if m.vals[i].set {
			n++
		}
	}
	return n
}

// Layout, WriteHeader, IterateCopyEntries and IterateZCEntries are the
// CornflakesObj protocol (Listing 1): instead of a serialize call producing
// a buffer, a message exposes its layout, writes its header region, and
// iterates its copy and zero-copy entries, so the co-designed networking
// stack serializes it directly into transmit descriptors. The stack takes
// the concrete *Message: it is the protocol's only implementation, and a
// call through an interface would move every iterator callback to the heap.
//
// Layout walks the object tree (send-mode only).
func (m *Message) Layout() Layout {
	m.mustSend()
	var l Layout
	m.addLayout(&l)
	return l
}

func addPtrToLayout(l *Layout, p CFPtr) {
	if p.IsZeroCopy() {
		l.ZCLen += p.Len()
		l.NumZC++
	} else {
		l.CopyLen += p.Len()
		l.NumCopy++
	}
}

func (m *Message) addLayout(l *Layout) {
	l.HeaderLen += wire.HeaderLen(len(m.schema.Fields), m.numPresent())
	for i := range m.vals {
		v := &m.vals[i]
		if !v.set {
			continue
		}
		l.Fields++
		switch m.schema.Fields[i].Kind {
		case KindInt:
			// Inline in the header entry.
		case KindBytes, KindString:
			addPtrToLayout(l, v.ptrs[0])
		case KindIntList:
			l.HeaderLen += len(v.ints) * wire.EntrySize
			l.Elems += len(v.ints)
		case KindBytesList, KindStringList:
			l.HeaderLen += len(v.ptrs) * wire.EntrySize
			l.Elems += len(v.ptrs)
			for _, p := range v.ptrs {
				addPtrToLayout(l, p)
			}
		case KindNested:
			v.msgs[0].addLayout(l)
		case KindNestedList:
			l.HeaderLen += len(v.msgs) * wire.EntrySize
			l.Elems += len(v.msgs)
			for _, sub := range v.msgs {
				sub.addLayout(l)
			}
		}
	}
}

// serializer tracks the three cursors of the object layout while the header
// region is written: aux (header region bump pointer), copy-data offset and
// zero-copy-data offset.
type serializer struct {
	obj     []byte
	aux     int
	copyOff int
	zcOff   int
}

func (s *serializer) allocAux(n int) int {
	off := s.aux
	s.aux += n
	if s.aux > len(s.obj) {
		panic(fmt.Sprintf("core: header region overflow (%d > %d)", s.aux, len(s.obj)))
	}
	return off
}

// place assigns a data offset to a CFPtr payload according to its variant.
// The assignment order matches IterateCopyEntries/IterateZCEntries exactly:
// both are the same depth-first schema-order walk.
func (s *serializer) place(p CFPtr) uint32 {
	if p.IsZeroCopy() {
		off := s.zcOff
		s.zcOff += p.Len()
		return uint32(off)
	}
	off := s.copyOff
	s.copyOff += p.Len()
	return uint32(off)
}

// WriteHeader writes the complete header region into dst, which has at
// least Layout().HeaderLen bytes and represents object offset 0.
func (m *Message) WriteHeader(dst []byte) {
	m.mustSend()
	l := m.Layout()
	s := &serializer{obj: dst[:l.HeaderLen], copyOff: l.HeaderLen, zcOff: l.HeaderLen + l.CopyLen}
	base := s.allocAux(wire.HeaderLen(len(m.schema.Fields), m.numPresent()))
	m.writeMsg(s, base)
}

func (m *Message) writeMsg(s *serializer, base int) {
	hdr := wire.NewWriter(s.obj, base, len(m.schema.Fields))
	for i := range m.vals {
		if m.vals[i].set {
			hdr.SetPresent(i)
		}
	}
	for i := range m.vals {
		v := &m.vals[i]
		if !v.set {
			continue
		}
		switch m.schema.Fields[i].Kind {
		case KindInt:
			hdr.PutInt(i, v.i)
		case KindBytes, KindString:
			p := v.ptrs[0]
			hdr.PutPtr(i, s.place(p), uint32(p.Len()))
		case KindIntList:
			tb := s.allocAux(len(v.ints) * wire.EntrySize)
			hdr.PutPtr(i, uint32(tb), uint32(len(v.ints)))
			lt, err := wire.NewListTable(s.obj, tb, len(v.ints))
			if err != nil {
				panic(err)
			}
			for j, x := range v.ints {
				lt.PutElemInt(j, x)
			}
		case KindBytesList, KindStringList:
			tb := s.allocAux(len(v.ptrs) * wire.EntrySize)
			hdr.PutPtr(i, uint32(tb), uint32(len(v.ptrs)))
			lt, err := wire.NewListTable(s.obj, tb, len(v.ptrs))
			if err != nil {
				panic(err)
			}
			for j, p := range v.ptrs {
				lt.PutElemPtr(j, s.place(p), uint32(p.Len()))
			}
		case KindNested:
			sub := v.msgs[0]
			ownLen := wire.HeaderLen(len(sub.schema.Fields), sub.numPresent())
			sb := s.allocAux(ownLen)
			hdr.PutPtr(i, uint32(sb), uint32(ownLen))
			sub.writeMsg(s, sb)
		case KindNestedList:
			tb := s.allocAux(len(v.msgs) * wire.EntrySize)
			hdr.PutPtr(i, uint32(tb), uint32(len(v.msgs)))
			lt, err := wire.NewListTable(s.obj, tb, len(v.msgs))
			if err != nil {
				panic(err)
			}
			for j, sub := range v.msgs {
				ownLen := wire.HeaderLen(len(sub.schema.Fields), sub.numPresent())
				sb := s.allocAux(ownLen)
				lt.PutElemPtr(j, uint32(sb), uint32(ownLen))
				sub.writeMsg(s, sb)
			}
		}
	}
}

// IterateCopyEntries yields each copied payload in layout order; the stack
// copies them contiguously after the header region. The walk order
// matches place().
func (m *Message) IterateCopyEntries(fn func(data []byte, sim uint64)) {
	m.walkPtrs(func(p CFPtr) {
		if !p.IsZeroCopy() {
			fn(p.Bytes(), p.Sim())
		}
	})
}

// IterateZCEntries yields each zero-copy buffer in layout order; the stack
// posts one scatter-gather entry per buffer. The walk order matches
// place().
func (m *Message) IterateZCEntries(fn func(buf *mem.Buf)) {
	m.walkPtrs(func(p CFPtr) {
		if p.IsZeroCopy() {
			fn(p.ZCBuf())
		}
	})
}

// walkPtrs visits every CFPtr in the object tree in the canonical
// serialization order: schema order, list elements in order, nested
// messages inline at their field position.
func (m *Message) walkPtrs(fn func(p CFPtr)) {
	for i := range m.vals {
		v := &m.vals[i]
		if !v.set {
			continue
		}
		switch m.schema.Fields[i].Kind {
		case KindBytes, KindString, KindBytesList, KindStringList:
			for _, p := range v.ptrs {
				fn(p)
			}
		case KindNested, KindNestedList:
			for _, sub := range v.msgs {
				sub.walkPtrs(fn)
			}
		}
	}
}

// Release drops every zero-copy reference the message holds (send side) and
// the received buffer (recv side, root view only). Applications call it
// once per request, after SendObject; the NIC holds its own references for
// in-flight DMA, so releasing immediately after send is safe — the
// use-after-free guarantee of §3.
func (m *Message) Release() {
	if m.recv {
		if m.rbuf != nil {
			m.ctx.Meter.MetadataAccess(m.rbuf.RefcountSimAddr())
			m.rbuf.DecRef()
			m.rbuf = nil
			// Only the root pinned view is parked: its Release is the
			// terminal event of the request's decode. Nested and unpinned
			// views have no-op Releases and stay heap-managed.
			m.park()
		}
		return
	}
	m.walkPtrs(func(p CFPtr) { p.Release(m.ctx.Meter) })
	for i := range m.vals {
		m.vals[i].clear()
	}
	m.park()
}

// park returns the message to its Ctx's pool, once.
func (m *Message) park() {
	if m.pooled {
		return
	}
	m.pooled = true
	m.rhdr = wire.Header{} // drop the view into the received bytes
	m.ctx.putMsg(m)
}

// Reset clears all send-side state without releasing references (for reuse
// after Release).
func (m *Message) Reset() {
	m.mustSend()
	for i := range m.vals {
		m.vals[i].clear()
	}
}
