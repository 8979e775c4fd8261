package driver

import (
	"fmt"

	"cornflakes/internal/baselines"
	"cornflakes/internal/core"
	"cornflakes/internal/msgs"
	"cornflakes/internal/workloads"
)

// KVClient encodes workload requests and decodes response ids for one
// serialization system; it plugs into loadgen.Run. The load generator
// machine is not the measured resource (§6.1.1), so client-side encoding
// costs land on the client node's meter and are not reported.
type KVClient struct {
	Sys System
	N   *Node
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

// BuildStep implements loadgen.Client.
func (c *KVClient) BuildStep(id uint64, req workloads.Request, step int) []byte {
	ob := opByte(req.Op)
	if c.Sys == SysCornflakes {
		return append([]byte{ob}, c.buildCF(id, req, step)...)
	}
	return append([]byte{ob}, c.Sys.EncodeDoc(buildDoc(id, req, step), c.N.Meter)...)
}

func (c *KVClient) buildCF(id uint64, req workloads.Request, step int) []byte {
	ctx := c.N.Ctx
	defer c.N.Arena.Reset()
	switch req.Op {
	case workloads.OpGet:
		m := msgs.NewGetReq(ctx)
		m.SetId(id)
		m.SetKey(ctx.NewCFPtr(req.Keys[0]))
		return core.Marshal(m.Obj())
	case workloads.OpGetM:
		m := msgs.NewGetM(ctx)
		m.SetId(id)
		for _, k := range req.Keys {
			m.AppendKeys(ctx.NewCFPtr(k))
		}
		return core.Marshal(m.Obj())
	case workloads.OpGetList:
		m := msgs.NewGetListReq(ctx)
		m.SetId(id)
		m.SetKey(ctx.NewCFPtr(req.Keys[0]))
		return core.Marshal(m.Obj())
	case workloads.OpGetIndex:
		m := msgs.NewGetListReq(ctx)
		m.SetId(id)
		m.SetKey(ctx.NewCFPtr(req.Keys[0]))
		m.SetIndex(uint64(step))
		return core.Marshal(m.Obj())
	default: // put
		m := msgs.NewPutReq(ctx)
		m.SetId(id)
		m.SetKey(ctx.NewCFPtr(req.Keys[0]))
		m.SetVal(ctx.NewCFPtr(req.Vals[0]))
		return core.Marshal(m.Obj())
	}
}

// buildDoc is buildCF's request as a baseline document.
func buildDoc(id uint64, req workloads.Request, step int) *baselines.Doc {
	var d *baselines.Doc
	switch req.Op {
	case workloads.OpGet:
		d = baselines.NewDoc(msgs.GetReqSchema)
		d.SetInt(0, id)
		d.SetBytes(1, req.Keys[0], 0)
	case workloads.OpGetM:
		d = baselines.NewDoc(msgs.GetMSchema)
		d.SetInt(0, id)
		for _, k := range req.Keys {
			d.AddBytes(1, k, 0)
		}
	case workloads.OpGetList:
		d = baselines.NewDoc(msgs.GetListReqSchema)
		d.SetInt(0, id)
		d.SetBytes(1, req.Keys[0], 0)
	case workloads.OpGetIndex:
		d = baselines.NewDoc(msgs.GetListReqSchema)
		d.SetInt(0, id)
		d.SetBytes(1, req.Keys[0], 0)
		d.SetInt(2, uint64(step))
	default:
		d = baselines.NewDoc(msgs.PutReqSchema)
		d.SetInt(0, id)
		d.SetBytes(1, req.Keys[0], 0)
		d.SetBytes(2, req.Vals[0], 0)
	}
	return d
}

// ResponseID implements loadgen.Client.
func (c *KVClient) ResponseID(p []byte) (uint64, error) {
	id, ok := c.Sys.PeekID(p)
	if !ok {
		return 0, fmt.Errorf("driver: cannot extract id from %s response", c.Sys)
	}
	return id, nil
}
