// Package driver composes the substrate into runnable topologies: one
// builder (Rack) for every node's resource bundle (allocator, arena,
// cache, meter, stack, core) and every topology, from a back-to-back
// Testbed to a switched rack, plus key-value servers and client codecs for
// Cornflakes and every baseline serializer, and echo servers for the §2
// motivation and Figure 9 TCP experiments. The experiments package builds
// every table and figure from these pieces.
package driver

import (
	"cornflakes/internal/cachesim"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/wire"
)

// Request op tags: one framing byte ahead of the serialized request names
// the operation, like an RPC method id.
const (
	OpByteGet byte = iota + 1
	OpByteGetM
	OpByteGetList
	OpByteGetIndex
	OpBytePut
)

// ShedByte marks an admission-control rejection: a 9-byte reply of
// ShedByte followed by the request id, little-endian. The marker is
// deliberately outside every serializer's valid leading byte (a Cornflakes
// response starts with a small LE word count, Protobuf with a field tag) so
// clients can classify shed replies before attempting deserialization. An
// explicit reply — rather than a silent drop — lets the client retry or
// give up immediately instead of burning its full timeout.
const ShedByte byte = 0xEE

// shedReplyLen is ShedByte + 8-byte id.
const shedReplyLen = 9

// ShedReply builds the rejection reply for a request id.
func ShedReply(id uint64) []byte {
	p := make([]byte, shedReplyLen)
	p[0] = ShedByte
	wire.PutU64(p[1:], id)
	return p
}

// ShedID reports whether p is a shed reply and, if so, the request id.
func ShedID(p []byte) (uint64, bool) {
	if len(p) != shedReplyLen || p[0] != ShedByte {
		return 0, false
	}
	return wire.GetU64(p[1:]), true
}

// Node bundles one machine's resources. Rack builds every node.
type Node struct {
	Eng *sim.Engine
	// Port is the node's NIC port: one end of a direct link, a switch
	// link, or a port shared with sibling cores (Rack.Cores).
	Port  *nic.Port
	Alloc *mem.Allocator
	Arena *mem.Arena
	Cache *cachesim.Hierarchy
	Meter *costmodel.Meter
	Ctx   *core.Ctx
	UDP   *netstack.UDP
	TCP   *netstack.TCPConn
	Core  *sim.Core

	// stack is the transport the node's server runs over: UDP or TCP,
	// whichever the node was built with, or a Segmenter over its UDP.
	stack stack
	// capnp is the frame a Cap'n Proto message is flattened into before
	// the stack copies it out (System.Send, System.AppendMarshal).
	capnp capnpFrame
}

// stack is the transport surface netstack.UDP, netstack.TCPConn and
// netstack.Segmenter share: servers that run over any of them reach the
// node's stack through it.
type stack interface {
	SetRecvHandler(fn func(payload *mem.Buf))
	SendObject(obj *core.Message, hdr ...byte) error
	SendContiguous(payload []byte, sim uint64) error
}

// SendShed sends the ShedReply for request id on the node's stack: the
// prebuilt-reply fast path on UDP, since shedding has to cost far less than
// serving or it cannot relieve the core, and SendContiguous on any other
// stack. The work is billed to CatShed: sheds run at frame-delivery or
// timer time, when the meter still carries whatever category the last job
// left active, and without the explicit category overload breakdowns would
// smear shed cycles across unrelated buckets. It is the one shed sender
// for KV servers and RPC services; counters and trace marks stay with the
// callers.
func (n *Node) SendShed(id uint64) error {
	m := n.Meter
	prev := m.SetCategory(costmodel.CatShed)
	defer m.SetCategory(prev)
	reply := ShedReply(id)
	sim := mem.UnpinnedSimAddr(reply)
	if u, ok := n.stack.(*netstack.UDP); ok {
		return u.SendPrebuilt(reply, sim)
	}
	return n.stack.SendContiguous(reply, sim)
}
