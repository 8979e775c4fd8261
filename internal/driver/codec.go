package driver

import (
	"cornflakes/internal/baselines"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
)

// System identifies a serialization system under test. It is also the
// codec: every per-library wire decision — how to peek an id, encode and
// decode a baseline document, and which datapath a reply takes — lives in
// the methods below, so clients, servers and the rpc layer never switch on
// the library themselves. Cornflakes objects are built and parsed through
// the generated msgs types instead; the Doc methods serve the three
// baselines, with any non-baseline value taking the Cap'n Proto branch.
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

// EncodeDoc serializes d into one contiguous buffer, charging m. This is
// the client side, where the bytes are handed to the stack as a plain
// payload: Protobuf marshals at a fresh simulated address, FlatBuffers
// returns its builder's buffer, and Cap'n Proto's segments are
// concatenated.
func (s System) EncodeDoc(d *baselines.Doc, m *costmodel.Meter) []byte {
	switch s {
	case SysProtobuf:
		buf := make([]byte, baselines.ProtoSize(d, m))
		n := baselines.ProtoMarshal(d, buf, m.AllocSimAddr(len(buf)), m)
		return buf[:n]
	case SysFlatBuffers:
		return baselines.FBBuild(d, m)
	default:
		segs, _ := baselines.CapnpFlatten(baselines.CapnpBuild(d, m))
		var out []byte
		for _, seg := range segs {
			out = append(out, seg...)
		}
		return out
	}
}

// DecodeDoc parses data (at simulated address sim) as a schema document,
// charging m.
func (s System) DecodeDoc(schema *core.Schema, data []byte, sim uint64, m *costmodel.Meter) (*baselines.Doc, error) {
	switch s {
	case SysProtobuf:
		return baselines.ProtoUnmarshal(schema, data, sim, m)
	case SysFlatBuffers:
		return baselines.FBDecode(schema, data, sim, m)
	default:
		return baselines.CapnpDecode(schema, data, sim, m)
	}
}

// sendDoc serializes a server reply on the library's own datapath
// (§6.1.3): Protobuf marshals straight into DMA-safe memory (one copy of
// field data), FlatBuffers builds one contiguous buffer the stack copies
// again, and Cap'n Proto's segment list is gathered into the DMA buffer.
// The FlatBuffers path runs on either stack; the other two are UDP-only.
func (s System) sendDoc(n *Node, d *baselines.Doc) error {
	m := n.Meter
	switch s {
	case SysProtobuf:
		size := baselines.ProtoSize(d, m)
		return n.UDP.SendWith(size, func(dst []byte, dstSim uint64) int {
			return baselines.ProtoMarshal(d, dst, dstSim, m)
		})
	case SysFlatBuffers:
		buf, bufSim := baselines.FBBuildSim(d, m)
		return n.stack.SendContiguous(buf, bufSim)
	default:
		segs, sims := baselines.CapnpFlatten(baselines.CapnpBuild(d, m))
		return n.UDP.SendSegments(segs, sims)
	}
}
