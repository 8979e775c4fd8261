package driver

import (
	"fmt"

	"cornflakes/internal/workloads"
)

// KVClient encodes workload requests and decodes response ids for one
// serialization system; it plugs into loadgen.Run. The load generator
// machine is not the measured resource (§6.1.1), so client-side costs are
// not metered: the client node's meter models no cache (see unmetered) and
// is never drained into simulated time.
type KVClient struct {
	Sys System
	N   *Node
	// out is the request scratch BuildStep writes into.
	out []byte
}

// NewKVClient builds a codec over the client node.
func NewKVClient(n *Node, sys System) *KVClient {
	return &KVClient{Sys: sys, N: n}
}

// Steps implements loadgen.Client: indexed-get requests (the CDN workload)
// fetch req.Index sub-objects sequentially; everything else is one
// exchange.
func (c *KVClient) Steps(req workloads.Request) int {
	if req.Op == workloads.OpGetIndex && req.Index > 1 {
		return req.Index
	}
	return 1
}

// opByte maps a workload op to the request framing byte.
func opByte(op workloads.Op) byte {
	switch op {
	case workloads.OpGet:
		return OpByteGet
	case workloads.OpGetM:
		return OpByteGetM
	case workloads.OpGetList:
		return OpByteGetList
	case workloads.OpGetIndex:
		return OpByteGetIndex
	default:
		return OpBytePut
	}
}

// BuildStep implements loadgen.Client: the op byte, then the request in
// that op's schema. The request lives in the client's scratch and is valid
// until its next BuildStep.
func (c *KVClient) BuildStep(id uint64, req workloads.Request, step int) []byte {
	defer c.N.Arena.Reset()
	op := opByte(req.Op)
	m := c.Sys.NewMsg(c.N, reqSchema(op))
	m.SetInt(0, id)
	switch op {
	case OpByteGetM:
		for _, k := range req.Keys {
			m.AddBytes(1, k, 0)
		}
	case OpBytePut:
		m.SetBytes(1, req.Keys[0], 0)
		m.SetBytes(2, req.Vals[0], 0)
	default:
		m.SetBytes(1, req.Keys[0], 0)
		if op == OpByteGetIndex {
			m.SetInt(2, uint64(step))
		}
	}
	c.out = c.Sys.AppendMarshal(append(c.out[:0], op), m)
	m.Release()
	return c.out
}

// ResponseID implements loadgen.Client.
func (c *KVClient) ResponseID(p []byte) (uint64, error) {
	id, ok := c.Sys.PeekID(p)
	if !ok {
		return 0, fmt.Errorf("driver: cannot extract id from %s response", c.Sys)
	}
	return id, nil
}
