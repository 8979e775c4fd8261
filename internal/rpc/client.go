package rpc

import (
	"errors"

	"cornflakes/internal/driver"
	"cornflakes/internal/msgs"
	"cornflakes/internal/workloads"
)

// Client adapts the RPC protocol to loadgen.Client: every generated
// request becomes one KindCall to the frontend service, with the flow's
// wire id as both call id and root id (hop 0), so the frontend's eventual
// KindReply — or the shed frame a failing tier propagated up — resolves
// the flow directly. Service-side call ids live in the high byte-tagged
// space (addr<<56), far above loadgen's per-client id ranges, so the two
// id spaces can never collide.
type Client struct {
	N   *driver.Node
	Sys driver.System
	// Frontend is the fabric address of the chain's first tier.
	Frontend byte
	// Method tags outgoing calls (one RPC method in this harness).
	Method byte
	// ReqBytes sizes the call payload the client marshals per attempt.
	ReqBytes int

	keyBuf []byte
	valBuf []byte
	// out is the frame scratch: a built frame is valid until the next
	// BuildStep, and loadgen copies it into a DMA buffer before then.
	out []byte
}

// NewClient builds the load-generator endpoint on a rack node.
func NewClient(n *driver.Node, sys driver.System, frontend byte) *Client {
	return &Client{
		N: n, Sys: sys, Frontend: frontend, Method: 1, ReqBytes: 64,
		keyBuf: []byte("rpc"),
	}
}

// Steps implements loadgen.Client: every RPC is one exchange.
func (c *Client) Steps(workloads.Request) int { return 1 }

// BuildStep implements loadgen.Client: one call frame aimed at the
// frontend, the Header followed by the System.Marshal output of a PutReq
// body. Like ClusterKVClient, addressing is a build-time side effect on the
// node's UDP stack.
func (c *Client) BuildStep(id uint64, _ workloads.Request, _ int) []byte {
	if c.valBuf == nil {
		c.valBuf = make([]byte, c.ReqBytes)
	}
	m := c.Sys.NewMsg(c.N, msgs.PutReqSchema)
	m.SetInt(0, id)
	m.SetBytes(1, c.keyBuf, 0)
	m.SetBytes(2, c.valBuf, 0)
	body := c.Sys.Marshal(m)
	m.Release()
	var hdr [HeaderLen]byte
	Header{Kind: KindCall, Method: c.Method, Hop: 0, CallID: id, RootID: id}.EncodeTo(hdr[:])
	c.out = append(append(c.out[:0], hdr[:]...), body...)
	c.N.Arena.Reset()
	c.N.UDP.DstAddr = c.Frontend
	return c.out
}

// ResponseID implements loadgen.Client: the root id rides in the header of
// every frame, so no deserialization is needed to resolve the flow. Shed
// frames (0xEE + id) are the generator's ShedID path, not ours.
func (c *Client) ResponseID(p []byte) (uint64, error) {
	id, ok := PeekRootID(p)
	if !ok {
		return 0, errors.New("rpc: short reply frame")
	}
	return id, nil
}
