// Package rpc layers a small remote-procedure-call protocol over the
// generated serializers: request/response framing with per-call wire ids
// and fan-out/fan-in — the building blocks of the microservice call graphs
// where, at microsecond scale, (de)serialization and stack overhead stop
// being noise and start dominating end-to-end latency (Dagger,
// arXiv:2106.01482). Services compose behind the fabric switch on a
// driver.Rack exactly like ClusterTestbed shards do, and every hop
// marshals and unmarshals its frames through internal/costmodel, so
// serialization cost compounds per hop of a chain.
//
// Wire format: a 19-byte plain header — kind (call or reply), method, hop,
// call id, root id — followed by a body serialized with the system under
// test (a PutReq shape for calls, a GetResp shape for replies). The root
// id is the originating client's wire id: it rides every hop unchanged, so
// replies resolve the client's flow and per-hop trace marks attribute to
// it, while each hop's calls get fresh call ids for their own pending
// tables. Admission rejections and downstream failures reuse the 9-byte
// driver.ShedReply framing (distinguishable by length and leading byte),
// so a mid-chain shed propagates upstream hop by hop until the client
// classifies it exactly like a single-server shed.
package rpc

import (
	"fmt"

	"cornflakes/internal/driver"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
	"cornflakes/internal/wire"
)

// Frame kinds. Values stay clear of driver.ShedByte (0xEE) so a shed
// frame's leading byte can never alias a kind.
const (
	KindCall  byte = 0x01 // expects a KindReply or a shed frame back
	KindReply byte = 0x02 // resolves the caller's pending call id
)

// HeaderLen is the fixed framing prefix ahead of the serialized body:
// kind(1) method(1) hop(1) callID(8) rootID(8).
const HeaderLen = 19

// Header is the per-frame RPC envelope.
type Header struct {
	Kind   byte
	Method byte
	// Hop is the sender's hop index (0 = the client).
	Hop byte
	// CallID names this call in the sender's pending table; replies echo it.
	CallID uint64
	// RootID is the originating client's wire id, constant across the
	// whole call tree.
	RootID uint64
}

// EncodeTo writes the header into b[0:HeaderLen].
func (h Header) EncodeTo(b []byte) {
	b[0] = h.Kind
	b[1] = h.Method
	b[2] = h.Hop
	wire.PutU64(b[3:], h.CallID)
	wire.PutU64(b[11:], h.RootID)
}

// DecodeHeader parses the framing prefix. The caller has checked length.
func DecodeHeader(b []byte) Header {
	return Header{
		Kind:   b[0],
		Method: b[1],
		Hop:    b[2],
		CallID: wire.GetU64(b[3:]),
		RootID: wire.GetU64(b[11:]),
	}
}

// PeekRootID extracts the root id from any RPC frame — the client's
// loadgen.Client.ResponseID, and cheap enough to run before deciding
// whether a full (metered) deserialization is worth paying for.
func PeekRootID(p []byte) (uint64, bool) {
	if len(p) < HeaderLen {
		return 0, false
	}
	return wire.GetU64(p[11:]), true
}

// codec builds and decodes RPC frames for one serialization system on one
// node, charging that node's meter — serialization is modelled work here,
// not bookkeeping. Calls carry a PutReq-shaped body (id, key, val);
// replies carry a GetResp-shaped body (id, val).
type codec struct {
	sys driver.System
	n   *driver.Node
	// out is the frame scratch buffer: a built frame is valid until this
	// codec's next build. Senders copy a frame into a DMA buffer before
	// they return, and loadgen builds every attempt afresh.
	out []byte
}

// buildCall serializes a call frame: header + PutReq body.
func (c *codec) buildCall(h Header, key, val []byte) []byte {
	m := c.sys.NewMsg(c.n, msgs.PutReqSchema)
	m.SetInt(0, h.CallID)
	m.SetBytes(1, key, 0)
	m.SetBytes(2, val, 0)
	return c.frame(h, m)
}

// buildReply serializes a reply frame: header + GetResp body.
func (c *codec) buildReply(h Header, val []byte) []byte {
	m := c.sys.NewMsg(c.n, msgs.GetRespSchema)
	m.SetInt(0, h.CallID)
	m.SetBytes(1, val, 0)
	return c.frame(h, m)
}

// frame marshals and releases the body m behind the header h.
func (c *codec) frame(h Header, m driver.Msg) []byte {
	body := c.sys.Marshal(m)
	m.Release()
	n := HeaderLen + len(body)
	if cap(c.out) < n {
		c.out = make([]byte, n)
	}
	out := c.out[:n]
	h.EncodeTo(out)
	copy(out[HeaderLen:], body)
	return out
}

// decodeBody deserializes a frame's body through the metered path and
// discards the result: an RPC hop pays the full parse cost even though the
// modelled services have no application state to keep. reply selects the
// GetResp shape over the PutReq shape. Consumes p.
func (c *codec) decodeBody(p *mem.Buf, reply bool) error {
	schema := msgs.PutReqSchema
	if reply {
		schema = msgs.GetRespSchema
	}
	m, err := c.sys.Decode(c.n, schema, p, HeaderLen)
	if err != nil {
		return fmt.Errorf("rpc: decode %s body: %w", c.sys, err)
	}
	m.Release()
	return nil
}
