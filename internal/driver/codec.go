package driver

import (
	"slices"

	"cornflakes/internal/baselines"
	"cornflakes/internal/core"
	"cornflakes/internal/mem"
)

// System identifies a serialization system under test. It is also the
// codec: every per-library wire decision — how to peek an id, build,
// encode and decode a message, and which datapath a reply takes — lives in
// this file, so clients, servers and the rpc layer never switch on the
// library themselves. Any value other than the four below takes the Cap'n
// Proto branch.
type System int

const (
	SysCornflakes System = iota
	SysProtobuf
	SysFlatBuffers
	SysCapnProto
)

func (s System) String() string {
	switch s {
	case SysCornflakes:
		return "Cornflakes"
	case SysProtobuf:
		return "Protobuf"
	case SysFlatBuffers:
		return "FlatBuffers"
	case SysCapnProto:
		return "Cap'n Proto"
	default:
		return "unknown"
	}
}

// AllSystems lists the four compared systems in the paper's table order.
func AllSystems() []System {
	return []System{SysCornflakes, SysProtobuf, SysFlatBuffers, SysCapnProto}
}

// PeekID extracts the id (field 0) of a serialized object without a
// metered deserialization.
func (s System) PeekID(p []byte) (uint64, bool) {
	switch s {
	case SysCornflakes:
		return core.PeekID(p)
	case SysProtobuf:
		return baselines.ProtoPeekID(p)
	case SysFlatBuffers:
		return baselines.FBPeekID(p)
	default:
		return baselines.CapnpPeekID(p)
	}
}

// Msg is one message in its system's own format: a Cornflakes object for
// SysCornflakes, a baseline document for the other three. The schema and
// the application stay the same and only the library changes (§6.1.2), so
// every request and reply is built and read once, through Msg, for all
// four systems. The setters run inline — a Cornflakes field's copy-or-pin
// decision happens as the field is set — and the getters charge nothing,
// so each metered call keeps the order the library's own API gives it.
// Msg is a plain value; Release it once.
type Msg struct {
	n   *Node
	cf  *core.Message
	doc *baselines.Doc
	// buf is the receive buffer a decoded document reads from. A decoded
	// Cornflakes object holds its own.
	buf *mem.Buf
}

// NewMsg returns an empty message of the schema, built on node n.
func (s System) NewMsg(n *Node, schema *core.Schema) Msg {
	if s == SysCornflakes {
		return Msg{n: n, cf: core.NewMessage(schema, n.Ctx)}
	}
	return Msg{n: n, doc: baselines.NewDoc(schema)}
}

// Decode parses the schema's message at byte offset off of the received
// buffer p, charging n's meter. The message takes p's reference: Release
// drops it, and a failed decode drops it at once.
func (s System) Decode(n *Node, schema *core.Schema, p *mem.Buf, off int) (Msg, error) {
	data, sim := p.Bytes()[off:], p.SimAddr()+uint64(off)
	var d *baselines.Doc
	var err error
	switch s {
	case SysCornflakes:
		body := p.SubView(off, len(data))
		p.DecRef()
		m, err := n.Ctx.Deserialize(schema, body)
		if err != nil {
			body.DecRef()
			return Msg{}, err
		}
		return Msg{n: n, cf: m}, nil
	case SysProtobuf:
		d, err = baselines.ProtoUnmarshal(schema, data, sim, n.Meter)
	case SysFlatBuffers:
		d, err = baselines.FBDecode(schema, data, sim, n.Meter)
	default:
		d, err = baselines.CapnpDecode(schema, data, sim, n.Meter)
	}
	if err != nil {
		p.DecRef()
		return Msg{}, err
	}
	return Msg{n: n, doc: d, buf: p}, nil
}

// capnpFrame is the Cap'n Proto framing scratch each node keeps (Node's
// capnp field), named here so the baselines stay inside this file.
type capnpFrame = baselines.CapnpFrame

// AppendMarshal appends m, serialized into one contiguous buffer, to dst
// and returns the extended slice. This is the client side, where the bytes
// are handed to the stack as a plain payload: Cornflakes lays out header,
// copied and zero-copy data (its field costs were charged as the setters
// ran), Protobuf marshals at a fresh simulated address, FlatBuffers copies
// out its builder's buffer, and Cap'n Proto's segments are concatenated,
// each baseline charging m's node's meter. A client that passes its own
// scratch back each time marshals a Cornflakes or Protobuf message without
// allocating once the scratch has grown.
func (s System) AppendMarshal(dst []byte, m Msg) []byte {
	meter := m.n.Meter
	switch s {
	case SysCornflakes:
		return core.AppendMarshal(dst, m.cf)
	case SysProtobuf:
		size := baselines.ProtoSize(m.doc, meter)
		start := len(dst)
		dst = slices.Grow(dst, size)[:start+size]
		n := baselines.ProtoMarshal(m.doc, dst[start:], meter.AllocSimAddr(size), meter)
		return dst[:start+n]
	case SysFlatBuffers:
		return append(dst, baselines.FBBuild(m.doc, meter)...)
	default:
		f := &m.n.capnp
		baselines.CapnpFlatten(f, baselines.CapnpBuild(m.doc, meter))
		for _, seg := range f.Segs {
			dst = append(dst, seg...)
		}
		return dst
	}
}

// Marshal is AppendMarshal into a fresh slice.
func (s System) Marshal(m Msg) []byte { return s.AppendMarshal(nil, m) }

// Send transmits m on the library's own datapath (§6.1.3), the one send
// path of every server, KV replies and RPC hops alike: Cornflakes
// serializes straight into transmit descriptors, Protobuf marshals into
// DMA-safe memory (one copy of field data), FlatBuffers builds one
// contiguous buffer the stack copies again, and Cap'n Proto's segment list
// is gathered into the DMA buffer. hdr, when given, is a frame header (the
// RPC envelope) the stack writes right behind its packet header, ahead of
// the body. Cornflakes and FlatBuffers run on either stack without one;
// every other send is UDP-only.
func (s System) Send(m Msg, hdr ...byte) error {
	n, meter := m.n, m.n.Meter
	switch s {
	case SysCornflakes:
		return n.stack.SendObject(m.cf, hdr...)
	case SysProtobuf:
		size := baselines.ProtoSize(m.doc, meter)
		return n.UDP.SendWith(size, func(dst []byte, dstSim uint64) int {
			return baselines.ProtoMarshal(m.doc, dst, dstSim, meter)
		}, hdr...)
	case SysFlatBuffers:
		buf, bufSim := baselines.FBBuildSim(m.doc, meter)
		if len(hdr) > 0 {
			return n.UDP.SendSegments([][]byte{buf}, []uint64{bufSim}, hdr...)
		}
		return n.stack.SendContiguous(buf, bufSim)
	default:
		f := &n.capnp
		baselines.CapnpFlatten(f, baselines.CapnpBuild(m.doc, meter))
		return n.UDP.SendSegments(f.Segs, f.Sims, hdr...)
	}
}

// SetInt sets integer field i.
func (m Msg) SetInt(i int, v uint64) {
	if m.cf != nil {
		m.cf.SetInt(i, v)
		return
	}
	m.doc.SetInt(i, v)
}

// SetBytes sets bytes field i. sim is b's simulated address, which a
// baseline document records (0 derives it from b's real address); a
// Cornflakes object ignores it, because NewCFPtr looks the address up as
// it decides between copy and zero-copy.
func (m Msg) SetBytes(i int, b []byte, sim uint64) {
	if m.cf != nil {
		m.cf.SetBytes(i, m.n.Ctx.NewCFPtr(b))
		return
	}
	m.doc.SetBytes(i, b, sim)
}

// AddBytes appends b to repeated bytes field i; sim is as for SetBytes.
func (m Msg) AddBytes(i int, b []byte, sim uint64) {
	if m.cf != nil {
		m.cf.AppendBytes(i, m.n.Ctx.NewCFPtr(b))
		return
	}
	m.doc.AddBytes(i, b, sim)
}

// Int reads integer field i of a decoded message (zero when absent).
func (m Msg) Int(i int) uint64 {
	if m.cf != nil {
		return m.cf.GetInt(i)
	}
	return m.doc.F[i].I
}

// Bytes reads bytes field i of a decoded message (nil when absent).
func (m Msg) Bytes(i int) []byte {
	if m.cf != nil {
		return m.cf.GetBytes(i)
	}
	if b := m.doc.F[i].B; len(b) > 0 {
		return b[0]
	}
	return nil
}

// Len is the element count of repeated bytes field i of a decoded message.
func (m Msg) Len(i int) int {
	if m.cf != nil {
		return m.cf.ListLen(i)
	}
	return len(m.doc.F[i].B)
}

// Elem reads element j of repeated bytes field i of a decoded message,
// with the simulated address to hand on to SetBytes or AddBytes: where a
// baseline decoder left the element (Protobuf copies it out of the
// receive buffer), and 0 for Cornflakes.
func (m Msg) Elem(i, j int) ([]byte, uint64) {
	if m.cf != nil {
		return m.cf.GetBytesElem(i, j), 0
	}
	f := &m.doc.F[i]
	return f.B[j], f.Sim[j]
}

// Release drops the message's buffer references: a Cornflakes object's
// zero-copy fields or receive buffer, a decoded document's receive buffer.
// Call it once, after the message is sent or read.
func (m Msg) Release() {
	if m.cf != nil {
		m.cf.Release()
	} else if m.buf != nil {
		m.buf.DecRef()
	}
}
